package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a /metrics endpoint: every series keyed by
// its full exposition name, labels included, e.g.
// `flock_query_seconds_sum{kind="select"}`.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment and blank lines are
// skipped; a line that is not "<series> <number>" is an error, so a format
// change in the server shows up as a failed run and not as silent zeros.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last field; label values may contain spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			return nil, fmt.Errorf("prom: no value in line %q", line)
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: bad value in line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom: reading exposition: %w", err)
	}
	return out, nil
}

// scrape fetches and parses base+"/metrics".
func scrape(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: HTTP %d", base, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// maxWithPrefix is the largest value among series whose name starts with
// prefix (a labelled family such as flock_repl_follower_lag_frames{...}).
func (s promSample) maxWithPrefix(prefix string) float64 {
	var m float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) && v > m {
			m = v
		}
	}
	return m
}

// promDelta is the change between two scrapes of one server.
type promDelta struct{ before, after promSample }

// of is after[key] - before[key]; absent series count as 0.
func (d promDelta) of(key string) float64 { return d.after[key] - d.before[key] }

// ratio is of(num)/of(den), or 0 when the denominator did not move.
func (d promDelta) ratio(num, den string) float64 {
	if dd := d.of(den); dd != 0 {
		return d.of(num) / dd
	}
	return 0
}
