package infer

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/onnx"
)

// pendingReq is one request parked behind an in-flight backend call. out is
// owned by the batcher until done is signalled, so a caller whose context
// dies while parked can abandon the request without racing the result
// scatter.
type pendingReq struct {
	b    *onnx.Batch
	out  []float64
	done chan error
}

// batchStats counts backend invocations made through batchers and the rows
// they carried — occupancy is rows/calls. It lives on the plane so the
// totals survive a batcher being dropped.
type batchStats struct{ calls, rows atomic.Int64 }

// batcher aggregates small scoring requests for one graph fingerprint, and
// never on a clock. A request that finds the batcher idle is scored at once
// on its caller's goroutine. Requests that arrive while a backend call is in
// flight park, and are merged — up to maxRows rows per call — into the next
// call, which starts the moment the current one returns. So aggregation
// happens exactly when it pays: a microsecond native session almost never
// overlaps another request, a millisecond remote scorer collects a round
// trip's worth of arrivals, and neither needs tuning.
type batcher struct {
	maxRows int
	score   scoreFn
	stats   *batchStats

	mu    sync.Mutex
	busy  bool          // a backend call is in flight, or drain is running
	queue []*pendingReq // parked while busy, oldest first
}

// scoreBatched scores the batch through the batcher. Uncontended, it writes
// out directly. A parked request's result lands in a batcher-owned slice and
// is copied to out only on success, so abandoning it on ctx never writes
// caller memory.
func (ba *batcher) scoreBatched(ctx context.Context, b *onnx.Batch, out []float64) error {
	ba.mu.Lock()
	if !ba.busy {
		ba.busy = true
		ba.mu.Unlock()
		err := fault.Inject("infer.batch")
		if err == nil {
			err = ba.call(b, out)
		}
		ba.release()
		return err
	}
	r := &pendingReq{b: b, out: make([]float64, b.N), done: make(chan error, 1)}
	ba.queue = append(ba.queue, r)
	ba.mu.Unlock()
	select {
	case err := <-r.done:
		if err == nil {
			copy(out, r.out)
		}
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release ends the caller's turn. With nothing parked the batcher goes
// idle; otherwise the queue is served by a transient goroutine, so the
// caller never waits on the requests that queued behind it. The goroutine
// exits once the queue is empty, and every flush is bounded by one backend
// call (done channels are buffered), so nothing has to stop or await it.
func (ba *batcher) release() {
	ba.mu.Lock()
	if len(ba.queue) == 0 {
		ba.busy = false
		ba.mu.Unlock()
		return
	}
	ba.mu.Unlock()
	go ba.drain()
}

// drain flushes the parked requests, one merged backend call per maxRows
// rows, until none remain; requests parked during a flush ride the next.
func (ba *batcher) drain() {
	for {
		ba.mu.Lock()
		n, rows := 0, 0
		for n < len(ba.queue) && (n == 0 || rows+ba.queue[n].b.N <= ba.maxRows) {
			rows += ba.queue[n].b.N
			n++
		}
		if n == 0 {
			ba.busy = false
			ba.mu.Unlock()
			return
		}
		pend := ba.queue[:n:n]
		if ba.queue = ba.queue[n:]; len(ba.queue) == 0 {
			ba.queue = nil // let the flushed requests go
		}
		ba.mu.Unlock()
		ba.flush(pend, rows)
	}
}

// call is one counted backend invocation.
func (ba *batcher) call(b *onnx.Batch, out []float64) error {
	ba.stats.calls.Add(1)
	ba.stats.rows.Add(int64(b.N))
	return ba.score(b, out)
}

// flush merges the pending requests into one columnar batch, makes a single
// backend call, and scatters the scores back. The infer.batch failpoint
// fires once per flush: an injected failure is broadcast to every waiter,
// and the plane degrades each of those requests to direct scoring — a
// failing batcher must never fail a query.
func (ba *batcher) flush(pend []*pendingReq, rows int) {
	if err := fault.Inject("infer.batch"); err != nil {
		for _, r := range pend {
			r.done <- err
		}
		return
	}
	if len(pend) == 1 {
		// Nothing to merge: score in place.
		r := pend[0]
		r.done <- ba.call(r.b, r.out)
		return
	}

	first := pend[0].b
	merged := &onnx.Batch{N: rows, Cols: make([]onnx.Column, len(first.Cols))}
	for c := range first.Cols {
		if first.Cols[c].Nums != nil {
			nums := make([]float64, 0, rows)
			for _, r := range pend {
				nums = append(nums, r.b.Cols[c].Nums...)
			}
			merged.Cols[c].Nums = nums
		} else {
			strs := make([]string, 0, rows)
			for _, r := range pend {
				strs = append(strs, r.b.Cols[c].Strs...)
			}
			merged.Cols[c].Strs = strs
		}
	}
	scores := make([]float64, rows)
	err := ba.call(merged, scores)
	off := 0
	for _, r := range pend {
		if err == nil {
			copy(r.out, scores[off:off+r.b.N])
		}
		off += r.b.N
		r.done <- err
	}
}
