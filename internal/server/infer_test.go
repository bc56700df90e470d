package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/workload"
)

// newInferServer is newTestServer with the inference plane enabled and its
// admin endpoints mounted.
func newInferServer(t testing.TB, rows int) (*core.Flock, *httptest.Server) {
	t.Helper()
	flock := newTestFlock(t, rows)
	plane := flock.EnableInferPlane(infer.Config{CanaryMinSamples: 50})
	s := New(flock, Config{OnSession: func(user string) { flock.Access.AssignRole(user, "admin") }, Infer: plane})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		flock.DisableInferPlane()
	})
	return flock, ts
}

func TestInferAdminEndpoints(t *testing.T) {
	flock, ts := newInferServer(t, 200)
	sid := openSession(t, ts.URL, "opal")

	// Deploy a second model version so there is a candidate to stage.
	pipe, err := workload.TrainScoringPipeline(400, 43, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := flock.DeployPipeline("root", "churn", pipe, core.TrainingInfo{Script: "infer_test v2"})
	if err != nil {
		t.Fatal(err)
	}

	// Unauthenticated requests bounce.
	resp, _ := postJSON(t, ts.URL+"/v1/admin/infer/deploy",
		map[string]any{"session": "nope", "model": "churn", "version": v2, "stage": "shadow"})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad session: want 401, got %d", resp.StatusCode)
	}

	// Bad stage is a 400.
	resp, body := postJSON(t, ts.URL+"/v1/admin/infer/deploy",
		map[string]any{"session": sid, "model": "churn", "version": v2, "stage": "yolo"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad stage: want 400, got %d %v", resp.StatusCode, body)
	}

	// Shadow-deploy the candidate.
	resp, body = postJSON(t, ts.URL+"/v1/admin/infer/deploy",
		map[string]any{"session": sid, "model": "churn", "version": v2, "stage": "shadow"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deploy: want 200, got %d %v", resp.StatusCode, body)
	}
	if body["stage"] != "shadow" || int(body["version"].(float64)) != v2 {
		t.Fatalf("deploy status: %v", body)
	}

	// Mirrored traffic accumulates stats visible in status.
	for i := 0; i < 3; i++ {
		resp, body = postJSON(t, ts.URL+"/v1/query", map[string]any{
			"session": sid, "sql": "SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM customers"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: want 200, got %d %v", resp.StatusCode, body)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/admin/infer/status", map[string]any{"session": sid})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: want 200, got %d %v", resp.StatusCode, body)
	}
	deps := body["deployments"].([]any)
	if len(deps) != 1 {
		t.Fatalf("want 1 deployment, got %v", body)
	}
	dep := deps[0].(map[string]any)
	if dep["samples"].(float64) == 0 {
		t.Fatalf("shadow saw no mirrored traffic: %v", dep)
	}

	// Manual promote flips the registry's production version.
	resp, body = postJSON(t, ts.URL+"/v1/admin/infer/promote", map[string]any{"session": sid, "model": "churn"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: want 200, got %d %v", resp.StatusCode, body)
	}
	if body["stage"] != "promoted" {
		t.Fatalf("promote status: %v", body)
	}
	stage := core.Stage("")
	for _, meta := range flock.Models.List() {
		if meta.Name == "churn" && meta.Version == v2 {
			stage = meta.Stage
		}
	}
	if stage != core.StageProduction {
		t.Fatalf("version %d stage after promote: %q", v2, stage)
	}

	// A promoted candidate cannot be promoted again.
	resp, _ = postJSON(t, ts.URL+"/v1/admin/infer/promote", map[string]any{"session": sid, "model": "churn"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("double promote: want 400, got %d", resp.StatusCode)
	}

	// Rollback of an unknown model is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/admin/infer/rollback", map[string]any{"session": sid, "model": "ghost"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ghost rollback: want 400, got %d", resp.StatusCode)
	}
}

func TestInferGaugesOnMetrics(t *testing.T) {
	_, ts := newInferServer(t, 150)
	sid := openSession(t, ts.URL, "mika")
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"session": sid, "sql": "SELECT id, PREDICT(churn, age, income, tenure, region) AS s FROM customers"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: want 200, got %d %v", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := mresp.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{
		"flock_infer_batch_occupancy",
		"flock_infer_cache_misses_total",
		"flock_infer_coalesced_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}
