package server

// Every JSON surface of a result, pinned byte for byte against goldens
// captured from the commit before the server wrote row-JSON from typed
// columns (07caadd): the /v1/query and /v1/exec answers, a DML answer, an
// empty answer and an empty fetch page, and the NDJSON lines of a
// one-SELECT stream (a drained cursor) and of a multi-statement stream (a
// materialized result). The values are the ones
// an encoder gets wrong first: HTML-significant and escaped characters,
// U+2028, integral and exponent-form floats, negative zero, an integer
// beyond 2^53 and booleans. Only the elapsed time is masked.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// goldenSetup builds the golden table; each INSERT's answer is goldenDML.
var goldenSetup = []string{
	"CREATE TABLE g (id INT, s TEXT, f FLOAT, b BOOL)",
	"INSERT INTO g VALUES (1, 'a<b>&\"c\\d''e', 2.0, TRUE)",
	"INSERT INTO g VALUES (9007199254740993, 'tab\there\u2028end', 1e21, FALSE)",
	"INSERT INTO g VALUES (3, '', 1e-7, TRUE)",
	"INSERT INTO g VALUES (4, 'x', -0.0, FALSE)",
}

const goldenSelect = "SELECT id, s, f, b, f * 2.0 AS f2 FROM g ORDER BY id"

const goldenDML = `{"columns":[],"rows":[],"affected":1,"elapsed_ms":_}` + "\n"

// goldenRows are goldenSelect's rows as row-JSON arrays.
var goldenRows = []string{
	`[1,"a\u003cb\u003e\u0026\"c\\d'e",2,true,4]`,
	`[3,"",1e-7,true,2e-7]`,
	`[4,"x",-0,false,-0]`,
	`[9007199254740993,"tab\there\u2028end",1e+21,false,2e+21]`,
}

const goldenHeader = `{"columns":["id","s","f","b","f2"]}`

var elapsedMS = regexp.MustCompile(`"elapsed_ms":[-+.0-9e]+`)

// postRaw posts body and returns the response with its raw body, the
// elapsed time masked.
func postRaw(t *testing.T, url string, body map[string]any) (*http.Response, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, elapsedMS.ReplaceAllString(string(raw), `"elapsed_ms":_`)
}

func wantBody(t *testing.T, what string, resp *http.Response, got, want string) {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d %s", what, resp.StatusCode, got)
	}
	if got != want {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
	}
}

func TestJSONSurfacesAreTheParentsBytes(t *testing.T) {
	_, ts := newTestServer(t, 10, Config{})
	sid := openSession(t, ts.URL, "root")
	query := func(sql string, stream bool) (*http.Response, string) {
		return postRaw(t, ts.URL+"/v1/query", map[string]any{"session": sid, "sql": sql, "stream": stream})
	}
	resp, got := query(goldenSetup[0], false)
	wantBody(t, "CREATE", resp, got, `{"columns":[],"rows":[],"affected":0,"elapsed_ms":_}`+"\n")
	for _, sql := range goldenSetup[1:] {
		resp, got := query(sql, false)
		wantBody(t, sql, resp, got, goldenDML)
	}

	answer := `{"columns":["id","s","f","b","f2"],"rows":[` + strings.Join(goldenRows, ",") + `],"affected":0,"elapsed_ms":_}` + "\n"
	resp, got = query(goldenSelect, false)
	wantBody(t, "/v1/query", resp, got, answer)

	resp, got = postRaw(t, ts.URL+"/v1/prepare", map[string]any{"session": sid, "sql": goldenSelect})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare: %d %s", resp.StatusCode, got)
	}
	var prepared struct{ Stmt string }
	if err := json.Unmarshal([]byte(got), &prepared); err != nil {
		t.Fatal(err)
	}
	resp, got = postRaw(t, ts.URL+"/v1/exec", map[string]any{"session": sid, "stmt": prepared.Stmt})
	wantBody(t, "/v1/exec", resp, got, answer)

	resp, got = query("SELECT id, s FROM g WHERE id < 0", false)
	wantBody(t, "empty SELECT", resp, got, `{"columns":["id","s"],"rows":[],"affected":0,"elapsed_ms":_}`+"\n")
	cur := openCursor(t, ts.URL, sid, "SELECT id, s FROM g WHERE id < 0")
	resp, raw := fetchRaw(t, ts.URL, "", map[string]any{"session": sid, "cursor": cur})
	wantBody(t, "empty fetch", resp, string(raw), `{"columns":["id","s"],"done":true,"rows":[]}`+"\n")

	lines := strings.Join(append(append([]string{goldenHeader}, goldenRows...),
		`{"affected":0,"elapsed_ms":_,"rows":4}`), "\n") + "\n"
	resp, got = query(goldenSelect, true)
	wantBody(t, "one-SELECT stream", resp, got, lines)
	resp, got = query("SELECT count(*) FROM g; "+goldenSelect, true)
	wantBody(t, "multi-statement stream", resp, got, lines)
	resp, got = query("SELECT count(*) FROM g; INSERT INTO g VALUES (5, 'y', 0.5, TRUE)", true)
	wantBody(t, "DML stream", resp, got, `{"columns":[]}`+"\n"+`{"affected":1,"elapsed_ms":_,"rows":0}`+"\n")
}
