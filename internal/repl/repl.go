// Package repl is the leader/follower replication plane: WAL log shipping
// over HTTP with resume-from-LSN, snapshot bootstrap, and configurable ack
// policies (async or quorum).
//
// The wire format is deliberately thin. The WAL is already a physical
// replication log — CRC-framed, LSN-stamped, torn-tail tolerant — so the
// leader ships the exact frame bytes it has on disk and the follower
// appends them at the same LSNs and installs them through the engine's
// replay primitives. Both sides therefore agree on exactly one sequence of
// frames, and every recovery property the single-node engine proves (CRC
// tears, idempotent replay, crash-point fuzzing) transfers to the replica
// for free.
//
// Protocol (all under /v1/repl/, authenticated by a shared static token in
// the X-Flock-Repl-Token header; sha256 + constant-time compare):
//
//	POST /v1/repl/wal      {"from_lsn":N,"max_bytes":B,"wait_ms":W,"follower":"id","epoch":E}
//	  -> 200 application/octet-stream: length+CRC framed WAL payloads with
//	     LSNs in (N, durable]. Long-polls up to wait_ms when the follower
//	     is caught up. Headers: X-Flock-Repl-Last-LSN (last frame in the
//	     body), X-Flock-Repl-Durable-LSN (leader durable watermark),
//	     X-Flock-Repl-Epoch (the leader's current epoch).
//	  -> 409 {"error":..., "snapshot_lsn":S} when N predates the retention
//	     horizon (a checkpoint folded those frames away; S is the LSN the
//	     bootstrap image covers), OR when the
//	     requester's (epoch, LSN) proves a diverged unreplicated tail
//	     ({"diverged":true}): bootstrap from the snapshot in both cases.
//	  -> 503 {"error":"fenced: ..."} when this node has been deposed; a
//	     follower must be repointed to the new leader.
//	POST /v1/repl/snapshot {"follower":"id"}
//	  -> 200 application/octet-stream: the leader checkpoint image.
//	     Header: X-Flock-Repl-LSN (the LSN the image covers).
//	POST /v1/repl/ack      {"follower":"id","applied_lsn":N,"epoch":E}
//	  -> 200 {"status":"ok"}. Feeds the quorum gate and the lag gauges.
//	  -> 409 {"error":"stale epoch ..."} when E is from a superseded
//	     generation: a stale-epoch ack never counts toward quorum.
//	GET  /v1/repl/status   -> JSON leader status (role, epoch, LSNs,
//	     followers, lag).
//
// Epoch fencing: every request and response carries the sender's
// leadership epoch. A leader that sees a HIGHER epoch in any request
// fences itself — it can never ack a write again (engine.Fence) — and a
// follower refuses frames stamped with a LOWER epoch than it knows
// (ErrStaleEpoch). Divergence is decided by (epoch, LSN): a stale-epoch
// follower whose from_lsn is past the promotion fold point holds frames
// acked nowhere, and is re-bootstrapped from the new leader's snapshot.
//
// A torn tail in a shipped batch (the connection died mid-frame) is
// indistinguishable from a torn local WAL tail and is handled the same
// way: the follower applies the intact prefix, acks it, and resumes from
// its own applied LSN on reconnect. Duplicates from resume overlap are
// idempotent skips in the engine.
package repl

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"net/http"
)

// Route paths (mounted by the serving layer on the leader).
const (
	PathWAL      = "/v1/repl/wal"
	PathSnapshot = "/v1/repl/snapshot"
	PathAck      = "/v1/repl/ack"
	PathStatus   = "/v1/repl/status"
)

// Wire headers.
const (
	HeaderToken      = "X-Flock-Repl-Token"
	HeaderLastLSN    = "X-Flock-Repl-Last-LSN"
	HeaderDurableLSN = "X-Flock-Repl-Durable-LSN"
	HeaderSnapLSN    = "X-Flock-Repl-LSN"
	// HeaderEpoch carries the sender's leadership epoch on ship and
	// snapshot responses (and on error bodies' "epoch" field): the
	// follower-side fencing input.
	HeaderEpoch = "X-Flock-Repl-Epoch"
)

// Failpoint names (see internal/fault): armable via FLOCK_FAULTS on any
// binary that links this package.
const (
	// FaultShip tears a shipped batch on the leader: the response body is
	// cut mid-frame, exactly like a connection dying mid-transfer.
	FaultShip = "repl.ship"
	// FaultShipWatch fires on the leader between a caught-up ship read and
	// taking the durable-watermark watch; armed with latency it holds the
	// window a commit can become durable in unseen by both.
	FaultShipWatch = "repl.ship.watch"
	// FaultStream drops the follower's stream between two applied frames,
	// forcing a reconnect + resume-from-LSN.
	FaultStream = "repl.stream"
	// FaultPromote aborts a replica promotion at its entry point: the node
	// must remain a read-only follower, never a half-promoted leader.
	FaultPromote = "repl.promote"
	// FaultRepoint aborts a follower re-point at its entry point: the node
	// keeps (or resumes) tailing its previous leader.
	FaultRepoint = "repl.repoint"
	// FaultFence fires where a node reacts to observing a higher epoch —
	// arm it with latency to widen fence races in chaos schedules.
	FaultFence = "repl.fence"
)

// ErrQuorumTimeout is returned by the commit gate when a quorum of
// follower acks did not arrive in time. The write is locally durable and
// installed — this is an ambiguous commit, exactly like an ack lost on the
// wire — so clients must treat it like a timeout, not a clean failure.
var ErrQuorumTimeout = errors.New("repl: quorum ack timeout")

// ErrStaleLeader is returned by a follower that refused a ship stream from
// a superseded leadership generation: the node it is tailing has been
// deposed, and the follower must be repointed to the new leader.
var ErrStaleLeader = errors.New("repl: stale leader epoch (the node being tailed was deposed)")

// tokenOK compares a presented replication token against the configured
// one. An empty configured token disables the check (single-machine dev
// and test topologies). Hash-then-compare keeps the comparison constant
// time without leaking token length.
func tokenOK(want string, r *http.Request) bool {
	if want == "" {
		return true
	}
	wantSum := sha256.Sum256([]byte(want))
	gotSum := sha256.Sum256([]byte(r.Header.Get(HeaderToken)))
	return subtle.ConstantTimeCompare(wantSum[:], gotSum[:]) == 1
}
