// Command flock-serve runs the HTTP serving layer over a Flock instance
// pre-loaded with the demo customers table and a deployed "churn" model:
//
//	$ flock-serve -addr 127.0.0.1:8080 -rows 100000
//	$ curl -s localhost:8080/v1/sessions -d '{"user":"alice"}'
//	  -> {"session":"<id>", ...}
//	$ curl -s localhost:8080/v1/query -d '{"session":"<id>",
//	      "sql":"SELECT count(*) FROM customers WHERE PREDICT(churn, age, income, tenure, region, notes) > 0.8"}'
//
// With -tokens, sessions require credentials ("user:token,user2:token2");
// without it any user is admitted (development mode). Every authenticated
// user is granted the admin role so the demo works out of the box; in a
// real deployment wire your own role assignment before starting the server.
//
// With -data-dir the instance is crash-safe: committed DML is write-ahead
// logged (fsync per commit under -wal-sync always), a background
// checkpointer folds the log into an atomic snapshot every
// -checkpoint-interval, and a restart recovers tables, time-travel
// history, deployed models and the audit chain (the record of every
// statement) — the demo workload is seeded only on first boot. See
// docs/durability.md.
//
// With -data-dir the instance also serves the /v1/repl/* log-shipping
// endpoints, so read replicas can attach at any time; -repl-ack=quorum
// additionally holds each commit's ack until -repl-quorum followers
// confirm. With -replica-of=<leader-url> the process runs as a read-only
// replica instead: it streams the leader's WAL, applies it through the
// recovery path, serves SELECT/PREDICT and cursor traffic, rejects writes
// with 503, and gates /readyz on replication lag. See docs/replication.md.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener closes,
// in-flight queries get a drain window, whatever remains is canceled
// engine-wide at the next batch boundary, and a final checkpoint folds the
// WAL before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/monitor"
	"repro/internal/onnx"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	rows := flag.Int("rows", 100000, "size of the demo customers table")
	workers := flag.Int("workers", 0, "max concurrent queries (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission wait-queue depth")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query timeout")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "per-query timeout ceiling")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle session expiry")
	sessionMaxLife := flag.Duration("session-max-life", 24*time.Hour, "hard session lifetime cap (expires even sessions holding cursors)")
	cursorTTL := flag.Duration("cursor-ttl", 5*time.Minute, "idle server-side cursor expiry")
	maxCursors := flag.Int("max-cursors", 16, "open server-side cursors per session")
	planCache := flag.Int("plan-cache", 256, "prepared-plan LRU capacity")
	tokens := flag.String("tokens", "", "comma-separated user:token credentials (empty = allow any user)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain window for in-flight queries")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory only; data does not survive restarts)")
	ckptEvery := flag.Duration("checkpoint-interval", time.Minute, "how often the background checkpointer folds the WAL into a snapshot")
	walSync := flag.String("wal-sync", "always", "WAL durability: 'always' fsyncs each committed DML statement, 'off' leaves flushing to the OS")
	scorerURL := flag.String("scorer-url", "", "remote HTTP scoring endpoint for UDF-mode PREDICT (empty = in-process scoring)")
	scorerRetries := flag.Int("scorer-retries", 2, "retries per scoring call against -scorer-url (jittered exponential backoff)")
	scorerBreakFails := flag.Int("scorer-breaker-failures", 5, "consecutive failures before the scorer circuit breaker opens")
	scorerBreakCooldown := flag.Duration("scorer-breaker-cooldown", 5*time.Second, "open-circuit cooldown before a half-open probe")
	scorerFallback := flag.Bool("scorer-fallback", true, "fall back to the native in-process scorer when -scorer-url is unavailable")
	replicaOf := flag.String("replica-of", "", "leader base URL; run as a read-only replica streaming its WAL (requires -data-dir)")
	replicaID := flag.String("replica-id", "", "follower id reported in acks and leader status (default: the listen address)")
	replToken := flag.String("repl-token", "", "shared replication token (leader: required from followers; replica: presented to the leader)")
	maxReplicaLag := flag.Int64("max-replica-lag", 0, "replica readiness gate: /readyz turns 503 past this many frames of lag (0 = no lag gate)")
	replAck := flag.String("repl-ack", "async", "leader ack policy: 'async' acks after local fsync, 'quorum' additionally waits for -repl-quorum follower acks")
	replQuorum := flag.Int("repl-quorum", 1, "follower acks required per commit under -repl-ack=quorum")
	replQuorumTimeout := flag.Duration("repl-quorum-timeout", 5*time.Second, "how long a commit waits for quorum before failing as ambiguous")
	replPeers := flag.String("repl-peers", "", "comma-separated peer base URLs, probed at boot: a restarted ex-leader deposed while down comes back fenced instead of accepting doomed writes")
	inferOn := flag.Bool("infer", true, "route PREDICT through the inference plane (batching on overlap, score cache, canary deployments)")
	inferRows := flag.Int("infer-batch-rows", 256, "rows merged into one coalesced backend call at most; requests this large bypass coalescing and the score cache")
	inferCache := flag.Int("infer-cache-size", 65536, "score-cache capacity in entries (negative disables caching)")
	inferCanaryMin := flag.Int64("infer-canary-min-samples", 500, "mirrored samples required before the canary gate acts")
	inferCanaryMaxDis := flag.Float64("infer-canary-max-disagreement", 0.05, "largest mean |candidate-primary| the canary gate promotes through")
	flag.Parse()

	var syncWAL bool
	switch *walSync {
	case "always":
		syncWAL = true
	case "off":
		syncWAL = false
	default:
		log.Fatalf("flock-serve: bad -wal-sync %q (want always|off)", *walSync)
	}

	replica := *replicaOf != ""
	if replica && *dataDir == "" {
		log.Fatal("flock-serve: -replica-of requires -data-dir (the replica's own WAL and snapshot live there)")
	}

	var flock *core.Flock
	var dur *core.Durability
	var err error
	switch {
	case replica:
		flock, dur, err = core.OpenDirReplica(*dataDir, *replicaOf, core.DurabilityOptions{WALSync: syncWAL})
		if err != nil {
			log.Fatal(err)
		}
		rec := dur.Recovery()
		fmt.Printf("flock-serve: replica of %s, recovered %s (snapshot=%t, %d WAL records replayed) applied_lsn=%d\n",
			*replicaOf, *dataDir, rec.SnapshotLoaded, rec.Records, flock.DB.AppliedLSN())
	case *dataDir != "":
		flock, dur, err = core.OpenDir(*dataDir, core.DurabilityOptions{WALSync: syncWAL})
		if err != nil {
			log.Fatal(err)
		}
		rec := dur.Recovery()
		if rec.SnapshotLoaded || rec.Records > 0 {
			fmt.Printf("flock-serve: recovered %s (snapshot=%t, %d WAL records replayed, torn tail=%t) in %s\n",
				*dataDir, rec.SnapshotLoaded, rec.Records, rec.TornTail, rec.Duration.Round(time.Millisecond))
		}
	default:
		flock, err = core.New()
		if err != nil {
			log.Fatal(err)
		}
	}

	flock.Access.AssignRole("flock-serve", "admin")

	// Demo workload: the Figure-4 scoring table plus a deployed churn model.
	// A recovered data directory already holds both, so seed only what is
	// missing (first boot, or an in-memory instance). A replica seeds
	// nothing: every row and model arrives from the leader's log.
	if !replica {
		if _, terr := flock.DB.Table("customers"); terr != nil {
			if err := workload.LoadScoringTable(flock.DB, workload.ScoringConfig{
				Rows: *rows, Seed: 7, Regions: 6, WithText: true,
			}); err != nil {
				log.Fatal(err)
			}
		}
		if _, gerr := flock.Models.GraphFor("churn"); gerr != nil {
			pipe, err := workload.TrainScoringPipeline(4000, 42, 50, true)
			if err != nil {
				log.Fatal(err)
			}
			if _, err := flock.DeployPipeline("flock-serve", "churn", pipe, core.TrainingInfo{
				Script: "flock-serve bootstrap", Tables: []string{"customers"},
			}); err != nil {
				log.Fatal(err)
			}
		}
	}

	cfg := server.Config{
		MaxWorkers:           *workers,
		MaxQueue:             *queue,
		DefaultTimeout:       *timeout,
		MaxTimeout:           *maxTimeout,
		SessionTTL:           *sessionTTL,
		SessionMaxLifetime:   *sessionMaxLife,
		CursorTTL:            *cursorTTL,
		MaxCursorsPerSession: *maxCursors,
		PlanCacheSize:        *planCache,
		// Demo role assignment: every authenticated user can do everything.
		OnSession: func(user string) { flock.Access.AssignRole(user, "admin") },
	}
	if *tokens != "" {
		creds := map[string]string{}
		for _, pair := range strings.Split(*tokens, ",") {
			user, token, ok := strings.Cut(strings.TrimSpace(pair), ":")
			if !ok {
				log.Fatalf("flock-serve: bad -tokens entry %q (want user:token)", pair)
			}
			creds[user] = token
		}
		cfg.Authenticate = server.StaticTokenAuth(creds)
	}

	// Remote scoring with the full availability ladder: per-endpoint shared
	// circuit breaker (the engine rebuilds scorers per query, the breaker
	// state must not reset with them), bounded jittered retry, and optional
	// fallback to the native in-process scorer. The same factory backs both
	// UDF-mode PREDICT and the inference plane's remote backend.
	var remoteScorer func(g *onnx.Graph) (onnx.Scorer, error)
	if *scorerURL != "" {
		remoteScorer = func(g *onnx.Graph) (onnx.Scorer, error) {
			rs := &onnx.ResilientScorer{
				S:          onnx.NewHTTPScorer(g, *scorerURL, 1000),
				Breaker:    onnx.SharedBreaker(*scorerURL, *scorerBreakFails, *scorerBreakCooldown),
				MaxRetries: *scorerRetries,
			}
			if *scorerFallback {
				local, err := onnx.NewLocalScorer(g)
				if err != nil {
					return nil, err
				}
				rs.Fallback = local
			}
			return rs, nil
		}
		flock.DB.SetUDFScorerFactory(remoteScorer)
	}

	// The subsystems are built first and handed to server.New, which wires
	// each one's routes and gauges (the breaker gauges ride /metrics
	// natively).

	// Inference plane: batched, cached, canaried PREDICT. On a replica the
	// cache stays correct because applied frames refresh the model
	// registry and bump its generation. With -scorer-url set the plane's
	// backend calls ride the same resilient remote scorer — requests that
	// arrive during a round trip share the next one.
	if *inferOn {
		icfg := infer.Config{
			BatchRows:             *inferRows,
			CacheSize:             *inferCache,
			CanaryMinSamples:      *inferCanaryMin,
			CanaryMaxDisagreement: *inferCanaryMaxDis,
		}
		if *scorerURL != "" {
			icfg.Remote = remoteScorer
		}
		cfg.Infer = flock.EnableInferPlane(icfg)
		defer flock.DisableInferPlane()
	}

	// Baseline the score monitor on the deployed model's training-time
	// distribution so /metrics exports drift state from the start. A
	// replica skips it: its model arrives later from the leader's log.
	if !replica {
		if mon := baselineMonitor(flock); mon != nil {
			cfg.Monitors = append(cfg.Monitors, mon)
		}
	}

	if dur != nil {
		// Background checkpointer + durability gauges on /metrics, and the
		// operator recovery path for a degraded (poisoned-WAL) instance.
		dur.Run(*ckptEvery, func(err error) { log.Printf("flock-serve: checkpoint failed: %v", err) })
		cfg.Durability = dur
	}

	// Replication wiring. Both roles mount a repl.Node, so either can
	// change roles at runtime: a primary with a data directory starts as
	// the leader (followers may attach at any time; under -repl-ack=quorum
	// the commit gate holds client acks until enough followers confirm) and
	// can be demoted via /v1/admin/repoint; a replica runs the follower
	// loop, gates /readyz on connection and lag, and can be promoted via
	// /v1/admin/promote.
	replCtx, replCancel := context.WithCancel(context.Background())
	defer replCancel()
	var node *repl.Node
	if replica || *dataDir != "" {
		leaderOpts := repl.Options{Token: *replToken, AckTimeout: *replQuorumTimeout}
		switch *replAck {
		case "async":
		case "quorum":
			leaderOpts.Quorum = *replQuorum
		default:
			log.Fatalf("flock-serve: bad -repl-ack %q (want async|quorum)", *replAck)
		}
		id := *replicaID
		if id == "" {
			id = *addr
		}
		nodeOpts := repl.NodeOptions{
			Leader: leaderOpts,
			Follower: repl.FollowerOptions{
				ID:    id,
				Token: *replToken,
				// Refresh the model registry (and thereby invalidate cached
				// plans via its generation counter) as shipped frames land.
				OnApplied: func() {
					if err := flock.RefreshModels(); err != nil {
						log.Printf("flock-serve: replica model refresh failed: %v", err)
					}
				},
			},
		}
		if replica {
			node = repl.NewFollowerNode(flock.DB, *replicaOf, nodeOpts)
			cfg.Ready = func() error {
				f := node.Follower()
				if f == nil {
					return nil // promoted: the leader readiness rules apply
				}
				if !f.Connected() {
					return fmt.Errorf("replica: not connected to leader %s: %s", f.Leader(), f.LastError())
				}
				if *maxReplicaLag > 0 && f.Lag() > *maxReplicaLag {
					return fmt.Errorf("replica: %d frames behind the leader (max %d)", f.Lag(), *maxReplicaLag)
				}
				return nil
			}
		} else {
			node = repl.NewLeaderNode(flock.DB, nodeOpts)
			if leaderOpts.Quorum > 0 {
				fmt.Printf("flock-serve: quorum acks enabled (%d follower(s), timeout %s)\n", leaderOpts.Quorum, *replQuorumTimeout)
			}
		}
		cfg.Repl = node
	}

	srv := server.New(flock, cfg)
	if node != nil {
		if *replPeers != "" {
			node.ProbePeers(replCtx, strings.Split(*replPeers, ","))
			if fenced, observed, source := flock.DB.Fenced(); fenced {
				fmt.Printf("flock-serve: fenced at boot: epoch %d observed via %s; repoint this node to the new leader\n", observed, source)
			}
		}
		go func() { _ = node.Run(replCtx) }()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*addr) }()
	// Give the listener a beat to bind so the banner prints the truth.
	time.Sleep(50 * time.Millisecond)
	if replica {
		fmt.Printf("flock-serve: read-only replica of %s, listening on %s\n", *replicaOf, *addr)
	} else {
		fmt.Printf("flock-serve: %d customers, model 'churn' deployed, listening on %s\n", *rows, *addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case <-sig:
		fmt.Println("flock-serve: shutting down...")
		replCancel() // stop the follower loop before the final checkpoint
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		err := srv.Shutdown(ctx)
		// The drain finished (or was forced): every statement that will
		// commit has committed, so fold the WAL one last time — a clean
		// restart recovers from the snapshot alone.
		if dur != nil {
			if cerr := dur.Close(); cerr != nil {
				log.Printf("flock-serve: final checkpoint failed: %v", cerr)
			}
		}
		if err != nil {
			log.Printf("flock-serve: forced shutdown after drain window: %v", err)
			os.Exit(1)
		}
		fmt.Println("flock-serve: clean shutdown")
	}
}

// baselineMonitor scores a sample of the customers table through the
// deployed model, snapshots the first part as the drift baseline, and
// seeds the sliding window with the rest — so /metrics exports live
// flock_monitor_psi / drift_status gauges (reading ~0 / stable) from the
// first scrape, with production traffic expected to keep feeding Observe.
func baselineMonitor(flock *core.Flock) *monitor.ScoreMonitor {
	res, err := flock.Exec("flock-serve",
		"SELECT PREDICT(churn, age, income, tenure, region, notes) FROM customers LIMIT 3000")
	if err != nil {
		log.Printf("flock-serve: monitor baseline skipped: %v", err)
		return nil
	}
	scores := res.Cols[0].Floats
	split := len(scores) * 2 / 3
	if split < monitor.DefaultBins {
		log.Printf("flock-serve: monitor baseline skipped: only %d scores", len(scores))
		return nil
	}
	mon, err := monitor.NewScoreMonitor("churn", scores[:split], 5000)
	if err != nil {
		log.Printf("flock-serve: monitor baseline skipped: %v", err)
		return nil
	}
	mon.Observe(scores[split:]...)
	return mon
}
