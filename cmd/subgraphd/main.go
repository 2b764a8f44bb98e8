// Command subgraphd is the long-running detection-job daemon: it serves
// the subgraph-detection HTTP/JSON API (graph uploads, job submission,
// result polling, traces, metrics) on a bounded worker budget with a
// content-addressed graph store and an LRU result cache.
//
// Modes:
//
//	subgraphd -listen :8080                        # serve until SIGTERM
//	subgraphd -router -members http://w1,http://w2 # cluster router over a worker fleet
//	subgraphd -selfcheck http://host:8080          # end-to-end cross-check
//
// Load testing lives in the bench/ module (bash bench/run.sh).
//
// On SIGTERM/SIGINT the daemon stops admitting jobs (503), finishes the
// queued and in-flight ones, prints a drain summary, and exits 0. A
// router drains by resolving every admitted job against its workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"subgraph/internal/canary"
	"subgraph/internal/cluster"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		listen       = flag.String("listen", "127.0.0.1:8080", "address to serve on (use :0 for an ephemeral port)")
		portFile     = flag.String("portfile", "", "write the bound address to this file once listening (for scripts)")
		workers      = flag.Int("workers", 2, "worker goroutines executing jobs")
		queue        = flag.Int("queue", 64, "admission queue depth (a full queue answers 429)")
		cacheSize    = flag.Int("cache", 512, "result cache entries (0 or negative disables caching)")
		maxGraphs    = flag.Int("max-graphs", 128, "graphs retained in the content-addressed store (LRU)")
		maxDeadline  = flag.Duration("max-deadline", 60*time.Second, "per-job wall-clock deadline cap")
		deltaChurn   = flag.Float64("delta-churn", 0, "churn-ratio threshold (changes/edges) at or under which deltas maintain results incrementally; 0 means the default 0.05, negative disables incremental maintenance")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "how long SIGTERM waits for in-flight jobs")

		router      = flag.Bool("router", false, "router mode: front a static worker fleet with digest routing, a shared result cache, and cluster admission control (requires -members)")
		members     = flag.String("members", "", "router: comma-separated worker base URLs (falls back to env SUBGRAPHD_MEMBERS)")
		replication = flag.Int("replication", 2, "router: how many workers own each graph digest")
		nodeName    = flag.String("node-name", "", "node name reported by /healthz and as the node= label on /metrics?format=prom")
		maxInflight = flag.Int("max-inflight", 256, "router: cluster-wide in-flight job bound (429 beyond it)")

		canaryFrac = flag.Float64("canary", 0, "fraction of completed jobs asynchronously re-checked through a second engine (+ ground truth on small instances); 0 disables")
		canaryDir  = flag.String("canary-artifacts", ".", "directory for shrunk canary divergence artifacts (replayable with cmd/diffcheck -replay)")
		sloP99     = flag.Duration("slo-p99", 0, "p99 job-latency budget; breaching it sheds low-priority jobs with 429 + Retry-After (0 disables the SLO guard)")
		sloQWait   = flag.Duration("slo-queue-wait", 0, "p99 queue-wait budget feeding the same SLO guard (0 disables)")
		sloWindow  = flag.Duration("slo-window", 30*time.Second, "rolling window the SLO percentiles are computed over")

		selfcheck = flag.String("selfcheck", "", "run the end-to-end self-check against this base URL and exit")
		saturate  = flag.Bool("saturate", false, "selfcheck: also assert 429 admission control (server must run -workers 1 -queue 1)")

		flightSize = flag.Int("flight", 256, "completed-job span timelines kept for GET /debug/jobs (negative disables the flight recorder)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "subgraphd")

	// The flag's 0 means "disable caching"; Config's zero value means
	// "take the 512 default" (struct zero values cannot tell unset from
	// an explicit 0), so an operator's -cache 0 is translated to the
	// Config's negative disable sentinel rather than silently becoming
	// the default.
	effCache := *cacheSize
	if effCache <= 0 {
		effCache = -1
	}
	reg := obs.NewRegistry()
	cfg := serve.Config{
		Workers:             *workers,
		QueueDepth:          *queue,
		CacheSize:           effCache,
		MaxGraphs:           *maxGraphs,
		MaxJobDeadline:      *maxDeadline,
		DeltaChurnThreshold: *deltaChurn, // 0 → serve's 0.05 default, negative → disabled
		Registry:            reg,
		SLO: serve.SLOConfig{
			LatencyBudget:   *sloP99,
			QueueWaitBudget: *sloQWait,
			Window:          *sloWindow,
		},
		FlightRecorderSize: *flightSize,
		Logger:             logger,
		NodeName:           *nodeName,
	}

	// The canary shares the server's registry and taps the jobs this
	// process executes via OnJobDone. A self-check executes none, and
	// neither does a router: it forwards every job to a worker, so the
	// canary belongs on the workers.
	var cn *canary.Canary
	if *canaryFrac > 0 {
		if *selfcheck != "" || *router {
			logger.Error("-canary re-checks jobs this process runs; -selfcheck and -router run no jobs (a router forwards them: run -canary on its workers)")
			return 2
		}
		cn = canary.New(canary.Config{
			Fraction:    *canaryFrac,
			ArtifactDir: *canaryDir,
			Registry:    reg,
			Logger:      logger.With("component", "canary"),
		})
		cfg.OnJobDone = cn.OnJobDone
	}

	switch {
	case *router:
		if *selfcheck != "" {
			logger.Error("-router is a serving mode; drop -selfcheck")
			return 2
		}
		memberList := splitMembers(*members)
		if len(memberList) == 0 {
			memberList = splitMembers(os.Getenv("SUBGRAPHD_MEMBERS"))
		}
		if len(memberList) == 0 {
			logger.Error("router mode needs workers: set -members or SUBGRAPHD_MEMBERS")
			return 2
		}
		rt, err := cluster.New(cluster.Config{
			Members:            memberList,
			Replication:        *replication,
			NodeName:           *nodeName,
			MaxInflight:        *maxInflight,
			CacheSize:          effCache,
			MaxGraphs:          *maxGraphs,
			Registry:           reg,
			SLO:                cfg.SLO,
			FlightRecorderSize: *flightSize,
			Logger:             logger,
		})
		if err != nil {
			logger.Error("router config", "err", err)
			return 1
		}
		rt.Start()
		// A router drains by resolving every admitted job against its workers.
		return serveAndDrain(logger, rt.Handler(), *listen, *portFile, *drainTimeout, rt.Drain,
			"role", cluster.RoleRouter, "members", len(memberList), "max_inflight", *maxInflight)

	case *selfcheck != "":
		err := serve.SelfCheck(*selfcheck, serve.SelfCheckOptions{
			Saturate: *saturate,
			Logf:     func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			logger.Error("selfcheck FAILED", "err", err)
			return 1
		}
		logger.Info("selfcheck passed")
		return 0

	default:
		srv := serve.New(cfg)
		srv.Start()
		code := serveAndDrain(logger, srv.Handler(), *listen, *portFile, *drainTimeout,
			func(ctx context.Context) error {
				_, err := srv.Drain(ctx)
				return err
			}, "workers", cfg.Workers, "queue", cfg.QueueDepth, "cache", cfg.CacheSize)
		if code == 0 && cn != nil && drainCanary(logger, cn, reg) > 0 {
			return 1
		}
		return code
	}
}

// drainCanary flushes the canary's queue and reports its verdict: the
// number of divergences (0 on a healthy engine) and how many jobs were
// cross-checked to earn it.
func drainCanary(logger *slog.Logger, cn *canary.Canary, reg *obs.Registry) (divergences int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cn.Drain(ctx); err != nil {
		logger.Warn("canary drain", "err", err)
	}
	checked := reg.Counter(canary.MetricChecked).Value()
	divergences = cn.Divergences()
	if divergences > 0 {
		logger.Error("canary divergences found (repro artifacts written)",
			"divergences", divergences, "checked", checked)
	} else {
		logger.Info("canary clean", "checked", checked, "divergences", 0)
	}
	return divergences
}

// splitMembers parses a comma-separated member list, trimming whitespace
// and dropping empty entries ("a, b,," -> ["a","b"]).
func splitMembers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if m := strings.TrimSpace(part); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// serveAndDrain serves h on listen until SIGTERM/SIGINT, then runs drain
// under the drain timeout. The listener stays up through the drain, so
// clients can poll the jobs they already own, and shuts down after it.
// attrs describe the daemon in the start-up log line.
func serveAndDrain(logger *slog.Logger, h http.Handler, listen, portFile string, drainTimeout time.Duration, drain func(context.Context) error, attrs ...any) int {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		logger.Error("listen", "addr", listen, "err", err)
		return 1
	}
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Error("writing portfile", "err", err)
			return 1
		}
	}
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("serving", append([]any{"url", "http://" + ln.Addr().String()}, attrs...)...)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		logger.Info("draining on signal (admitted jobs finish, new submissions get 503)",
			"signal", sig.String())
	case err := <-errc:
		logger.Error("http server", "err", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	derr := drain(ctx)
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)
	if derr != nil {
		logger.Error("drain", "err", derr)
		return 1
	}
	logger.Info("drained cleanly")
	return 0
}
