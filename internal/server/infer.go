package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/infer"
)

// routeInfer mounts the inference-plane admin endpoints (New does, when
// Config.Infer is set; the plane's gauges ride /metrics):
//
//	POST /v1/admin/infer/deploy   {session, model, version, stage}
//	POST /v1/admin/infer/promote  {session, model}
//	POST /v1/admin/infer/rollback {session, model}
//	POST /v1/admin/infer/status   {session}
//
// All four are session-authenticated and audited, following the other
// admin endpoints. Deploy registers a candidate version in shadow or
// canary stage; promote/rollback act manually on the candidate ahead of
// (or against) the automatic gate; status reports every candidate's
// mirrored-traffic stats.
func (s *Server) routeInfer(p *infer.Plane) {
	s.mux.HandleFunc("POST /v1/admin/infer/deploy", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Session string `json:"session"`
			Model   string `json:"model"`
			Version int    `json:"version"`
			Stage   string `json:"stage"`
		}
		user, ok := s.adminSession(w, r, &req, &req.Session)
		if !ok {
			return
		}
		stage, err := infer.ParseStage(req.Stage)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		st, err := p.Deploy(req.Model, req.Version, stage)
		s.flock.Audit.Record(user, "admin.infer.deploy",
			fmt.Sprintf("model:%s", req.Model),
			fmt.Sprintf("version %d as %s", req.Version, req.Stage), err == nil)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	s.mux.HandleFunc("POST /v1/admin/infer/promote", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Session string `json:"session"`
			Model   string `json:"model"`
		}
		user, ok := s.adminSession(w, r, &req, &req.Session)
		if !ok {
			return
		}
		st, err := p.PromoteCandidate(req.Model)
		s.flock.Audit.Record(user, "admin.infer.promote",
			fmt.Sprintf("model:%s", req.Model), "manual promotion", err == nil)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	s.mux.HandleFunc("POST /v1/admin/infer/rollback", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Session string `json:"session"`
			Model   string `json:"model"`
		}
		user, ok := s.adminSession(w, r, &req, &req.Session)
		if !ok {
			return
		}
		st, err := p.RollbackCandidate(req.Model)
		s.flock.Audit.Record(user, "admin.infer.rollback",
			fmt.Sprintf("model:%s", req.Model), "manual rollback", err == nil)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	s.mux.HandleFunc("POST /v1/admin/infer/status", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Session string `json:"session"`
		}
		if _, ok := s.adminSession(w, r, &req, &req.Session); !ok {
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"deployments": p.Deployments()})
	})
}

// adminSession decodes the request body into req and authenticates the
// session named by *sessionField, the shared preamble of the admin
// endpoints. On failure it writes the HTTP error and returns ok=false.
func (s *Server) adminSession(w http.ResponseWriter, r *http.Request, req any, sessionField *string) (string, bool) {
	if !decodeBody(w, r, req, "admin") {
		return "", false
	}
	sess, ok := s.sessions.get(*sessionField)
	if !ok {
		writeError(w, http.StatusUnauthorized, errors.New("unknown or expired session"))
		return "", false
	}
	return sess.user, true
}
