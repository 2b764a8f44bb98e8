// Command subgraphd is the long-running detection-job daemon: it serves
// the subgraph-detection HTTP/JSON API (graph uploads, job submission,
// result polling, traces, metrics) on a bounded worker budget with a
// content-addressed graph store and an LRU result cache.
//
// Modes:
//
//	subgraphd -listen :8080                        # serve until SIGTERM
//	subgraphd -router -members http://w1,http://w2 # cluster router over a worker fleet
//	subgraphd -loadgen -jobs 500 -out BENCH.json   # load-test (in-process server)
//	subgraphd -loadgen -cluster 3                  # load-test an in-process router + 3 workers
//	subgraphd -loadgen -target http://host:8080    # load-test a remote daemon or router
//	subgraphd -selfcheck http://host:8080          # end-to-end cross-check
//
// On SIGTERM/SIGINT the daemon stops admitting jobs (503), finishes the
// queued and in-flight ones, prints a drain summary, and exits 0. A
// router drains by resolving every admitted job against its workers.
package main

import (
	"context"
	"encoding/json"
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
		replication = flag.Int("replication", 2, "router/cluster loadgen: how many workers own each graph digest")
		nodeName    = flag.String("node-name", "", "node name reported by /healthz and as the node= label on /metrics?format=prom")
		maxInflight = flag.Int("max-inflight", 256, "router: cluster-wide in-flight job bound (429 beyond it)")

		canaryFrac = flag.Float64("canary", 0, "fraction of completed jobs asynchronously re-checked through a second engine (+ ground truth on small instances); 0 disables")
		canaryDir  = flag.String("canary-artifacts", ".", "directory for shrunk canary divergence artifacts (replayable with cmd/diffcheck -replay)")
		sloP99     = flag.Duration("slo-p99", 0, "p99 job-latency budget; breaching it sheds low-priority jobs with 429 + Retry-After (0 disables the SLO guard)")
		sloQWait   = flag.Duration("slo-queue-wait", 0, "p99 queue-wait budget feeding the same SLO guard (0 disables)")
		sloWindow  = flag.Duration("slo-window", 30*time.Second, "rolling window the SLO percentiles are computed over")

		loadgen     = flag.Bool("loadgen", false, "load-generator mode: replay a seeded job mix and report latency percentiles")
		clusterN    = flag.Int("cluster", 0, "loadgen: boot an in-process router + N workers and load-test through the router")
		target      = flag.String("target", "", "loadgen: base URL of a running daemon (default: in-process server)")
		jobs        = flag.Int("jobs", 200, "loadgen: jobs to replay")
		concurrency = flag.Int("concurrency", 8, "loadgen: client workers")
		seed        = flag.Int64("seed", 1, "loadgen: workload seed (same seed = same mix)")
		graphN      = flag.Int("graph-n", 150, "loadgen: vertices per generated topology")
		repeatFrac  = flag.Float64("repeat", 0.5, "loadgen: fraction of jobs repeating an earlier one (cache exercise)")
		lowFrac     = flag.Float64("low-frac", 0, "loadgen: fraction of jobs submitted at low priority (the tier the SLO guard sheds first)")
		countFrac   = flag.Float64("count-frac", 0, "loadgen: fraction of jobs submitted in count mode (clique patterns routed to the local bitset kernel)")
		warmup      = flag.Int("warmup", 0, "loadgen: unmeasured warm-up jobs replayed before the metrics snapshot (steady-state cache/kernel measurement)")
		chaos       = flag.Bool("chaos", false, "loadgen: wrap the in-process server in seeded fault injection (429/503/latency) — grades the client's retry policy")
		chaosSeed   = flag.Int64("chaos-seed", 1, "loadgen: fault-injection seed")
		out         = flag.String("out", "", "loadgen: write the benchreport JSON here (default stdout)")

		churn        = flag.Bool("churn", false, "churn mode: evolve a graph through a delta chain and report incremental-vs-scratch count latency (combine with -loadgen flags -seed/-graph-n/-target/-out)")
		churnSteps   = flag.Int("churn-steps", 40, "churn: delta-chain length")
		churnChanges = flag.Int("churn-changes", 8, "churn: edge changes per delta (churn ratio = changes/m)")
		churnDegree  = flag.Float64("churn-degree", 40, "churn: average degree of the evolving graph")
		churnPattern = flag.String("churn-pattern", "clique:4", "churn: watched clique-family pattern")

		selfcheck = flag.String("selfcheck", "", "run the end-to-end self-check against this base URL and exit")
		saturate  = flag.Bool("saturate", false, "selfcheck: also assert 429 admission control (server must run -workers 1 -queue 1)")

		flightSize = flag.Int("flight", 256, "completed-job span timelines kept for GET /debug/jobs (negative disables the flight recorder)")
		traceDemo  = flag.Bool("trace-demo", false, "loadgen: after the run, dump one recorded job timeline and the Prometheus metrics page")
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
	// logf adapts the structured logger for the Logf-style progress hooks
	// (loadgen, selfcheck) whose lines are already fully formatted.
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }
	flight := *flightSize
	if *loadgen && flight > 0 && flight < *jobs*8 {
		// The acceptance bar for a load run is every completed job being
		// retrievable from /debug/jobs/{id}. Shed, rejected, and coalesced
		// submissions record timelines too — under chaos each job may retry
		// several times — so size the ring for total submissions, not jobs.
		flight = *jobs * 8
	}
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
		FlightRecorderSize: flight,
		Logger:             logger,
		NodeName:           *nodeName,
	}

	// The canary shares the server's registry and taps completed jobs via
	// OnJobDone; it only makes sense where the server runs in this process.
	var cn *canary.Canary
	if *canaryFrac > 0 {
		if *selfcheck != "" || (*loadgen && *target != "") {
			logger.Error("-canary needs the server in-process (drop -target / -selfcheck)")
			return 2
		}
		cn = canary.New(canary.Config{
			Fraction:    *canaryFrac,
			Seed:        *seed,
			ArtifactDir: *canaryDir,
			Registry:    reg,
			Logger:      logger.With("component", "canary"),
		})
		cfg.OnJobDone = cn.OnJobDone
	}

	switch {
	case *router:
		if *loadgen || *churn || *selfcheck != "" {
			logger.Error("-router is a serving mode; drop -loadgen / -churn / -selfcheck")
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
			Logf:     logf,
		})
		if err != nil {
			logger.Error("selfcheck FAILED", "err", err)
			return 1
		}
		logger.Info("selfcheck passed")
		return 0

	case *churn:
		if *loadgen {
			logger.Error("-churn is its own workload; drop -loadgen")
			return 2
		}
		// -graph-n's flag default (150) suits the job-mix loadgen; the churn
		// chain defaults larger (ChurnConfig's 2000) so the from-scratch
		// comparator does real work. An explicit -graph-n wins in both modes.
		churnN := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "graph-n" {
				churnN = *graphN
			}
		})
		return runChurn(logger, cfg, serve.ChurnConfig{
			BaseURL: *target,
			Steps:   *churnSteps,
			GraphN:  churnN,
			Degree:  *churnDegree,
			Changes: *churnChanges,
			Pattern: *churnPattern,
			Seed:    *seed,
			Logf:    logf,
		}, *out)

	case *loadgen:
		if *clusterN > 0 && (*target != "" || *chaos || *canaryFrac > 0) {
			logger.Error("-cluster boots its own in-process topology; drop -target / -chaos / -canary")
			return 2
		}
		var chaosCfg *serve.ChaosConfig
		if *chaos {
			if *target != "" {
				logger.Error("-chaos wraps the in-process server; it cannot inject into a remote -target")
				return 2
			}
			chaosCfg = &serve.ChaosConfig{
				Seed:        *chaosSeed,
				Reject429:   0.10,
				Fail503:     0.05,
				LatencyRate: 0.10,
				LatencyMax:  25 * time.Millisecond,
			}
		}
		return runLoadGen(logger, cfg, serve.LoadGenConfig{
			BaseURL:             *target,
			Jobs:                *jobs,
			Concurrency:         *concurrency,
			Seed:                *seed,
			GraphN:              *graphN,
			RepeatFraction:      *repeatFrac,
			LowPriorityFraction: *lowFrac,
			CountFraction:       *countFrac,
			Warmup:              *warmup,
			Logf:                logf,
		}, *out, chaosCfg, cn, *traceDemo, *clusterN, *replication)

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

// runLoadGen replays the seeded mix, spinning up an in-process daemon when
// no -target is given (optionally behind chaos fault injection and with a
// canary tapping completed jobs), and writes the benchreport JSON. A
// failed drain or any canary divergence fails the run.
func runLoadGen(logger *slog.Logger, cfg serve.Config, lg serve.LoadGenConfig, out string, chaosCfg *serve.ChaosConfig, cn *canary.Canary, traceDemo bool, clusterN, replication int) int {
	var srv *serve.Server
	var hs *http.Server
	var cl *cluster.InProcess
	if lg.BaseURL == "" && clusterN > 0 {
		if replication > clusterN {
			replication = clusterN
		}
		var err error
		cl, err = cluster.StartInProcess(clusterN, cfg, cluster.Config{
			Replication:        replication,
			CacheSize:          cfg.CacheSize,
			MaxGraphs:          cfg.MaxGraphs,
			Registry:           cfg.Registry,
			SLO:                cfg.SLO,
			FlightRecorderSize: cfg.FlightRecorderSize,
			Logger:             logger.With("component", "router"),
		})
		if err != nil {
			logger.Error("starting in-process cluster", "err", err)
			return 1
		}
		lg.BaseURL = cl.BaseURL
		lg.Nodes = clusterN
		lg.Replication = replication
		logger.Info("loadgen against in-process cluster",
			"url", lg.BaseURL, "nodes", clusterN, "replication", replication,
			"workers_per_node", cfg.Workers)
	} else if lg.BaseURL == "" {
		srv = serve.New(cfg)
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			logger.Error("listen", "err", err)
			return 1
		}
		var handler http.Handler = srv.Handler()
		if chaosCfg != nil {
			handler = serve.NewChaos(*chaosCfg, cfg.Registry).Middleware(handler)
			logger.Info("chaos injection armed",
				"seed", chaosCfg.Seed,
				"reject_429_pct", 100*chaosCfg.Reject429,
				"fail_503_pct", 100*chaosCfg.Fail503,
				"delay_pct", 100*chaosCfg.LatencyRate)
		}
		hs = &http.Server{Handler: handler}
		go func() { _ = hs.Serve(ln) }()
		lg.BaseURL = "http://" + ln.Addr().String()
		logger.Info("loadgen against in-process server", "url", lg.BaseURL, "workers", cfg.Workers)
	}

	res, err := serve.RunLoadGen(lg)

	// The trace demo reads /debug/jobs and /metrics?format=prom while the
	// server is still up — before the drain tears it down.
	if err == nil && traceDemo {
		if derr := runTraceDemo(lg.BaseURL); derr != nil {
			logger.Error("trace demo", "err", derr)
			return 1
		}
	}

	// Drain before judging the run: a drain failure is a real failure
	// (jobs were lost or hung), not shutdown noise to swallow.
	if cl != nil {
		if derr := cl.Close(30 * time.Second); derr != nil {
			logger.Error("cluster drain after loadgen", "err", derr)
			return 1
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, derr := srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		cancel()
		if derr != nil {
			logger.Error("drain after loadgen", "err", derr)
			return 1
		}
	}
	if err != nil {
		logger.Error("loadgen", "err", err)
		return 1
	}
	if cn != nil {
		res.CanaryDivergences = drainCanary(logger, cn, cfg.Registry)
		res.CanaryChecked = cfg.Registry.Counter(canary.MetricChecked).Value()
	}
	// Without chaos any error is a failure. Under injected faults the bar
	// is the acceptance criterion instead: at least 99% of retried
	// requests must recover, and errors must stay within a 1% job budget.
	if res.Errors > 0 {
		if chaosCfg == nil || float64(res.Errors) > 0.01*float64(lg.Jobs) {
			logger.Error("loadgen jobs errored", "errors", res.Errors)
			return 1
		}
		logger.Info("loadgen jobs errored under chaos (within the 1% budget)", "errors", res.Errors)
	}
	if chaosCfg != nil && res.RetrySuccessPct < 99 {
		logger.Error("retry success under chaos below bar",
			"retry_success_pct", res.RetrySuccessPct, "want_pct", 99)
		return 1
	}
	if res.CanaryDivergences > 0 {
		return 1
	}
	data, err := json.MarshalIndent(res.BenchReport(), "", "  ")
	if err != nil {
		logger.Error("encoding report", "err", err)
		return 1
	}
	data = append(data, '\n')
	if out == "" {
		fmt.Print(string(data))
		return 0
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		logger.Error("writing report", "path", out, "err", err)
		return 1
	}
	logger.Info("wrote report", "path", out)
	return 0
}

// runChurn drives the evolving-graph churn workload, spinning up an
// in-process daemon when no -target is given, and writes the benchreport
// JSON with the incremental-vs-scratch speedup columns.
func runChurn(logger *slog.Logger, cfg serve.Config, cc serve.ChurnConfig, out string) int {
	var srv *serve.Server
	var hs *http.Server
	if cc.BaseURL == "" {
		srv = serve.New(cfg)
		srv.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			logger.Error("listen", "err", err)
			return 1
		}
		hs = &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		cc.BaseURL = "http://" + ln.Addr().String()
		logger.Info("churn against in-process server", "url", cc.BaseURL, "workers", cfg.Workers)
	}

	res, err := serve.RunChurn(cc)

	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, derr := srv.Drain(ctx)
		_ = hs.Shutdown(ctx)
		cancel()
		if derr != nil {
			logger.Error("drain after churn", "err", derr)
			return 1
		}
	}
	if err != nil {
		logger.Error("churn", "err", err)
		return 1
	}
	data, err := json.MarshalIndent(res.BenchReport(), "", "  ")
	if err != nil {
		logger.Error("encoding report", "err", err)
		return 1
	}
	data = append(data, '\n')
	if out == "" {
		fmt.Print(string(data))
		return 0
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		logger.Error("writing report", "path", out, "err", err)
		return 1
	}
	logger.Info("wrote report", "path", out)
	return 0
}

// runTraceDemo prints one complete recorded job timeline (preferring a
// job that actually ran the engine) and the Prometheus exposition page —
// the two new observability surfaces, demonstrated end to end against a
// live server.
func runTraceDemo(baseURL string) error {
	c := &serve.Client{Base: baseURL}
	dj, err := c.DebugJobs()
	if err != nil {
		return fmt.Errorf("fetching /debug/jobs: %w", err)
	}
	var pick *obs.TimelineView
	for _, tl := range dj.Timelines {
		if tl.Outcome == serve.StateDone && tl.SpanByName("engine_run") != nil {
			pick = tl
			break
		}
	}
	if pick == nil && len(dj.Timelines) > 0 {
		pick = dj.Timelines[0]
	}
	if pick == nil {
		return fmt.Errorf("flight recorder is empty (server run with -flight < 0?)")
	}
	// Re-fetch by ID: the demo exercises /debug/jobs/{id}, the lookup an
	// engineer would actually use.
	full, err := c.DebugJob(pick.TraceID)
	if err != nil {
		return fmt.Errorf("fetching /debug/jobs/%s: %w", pick.TraceID, err)
	}
	tj, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("=== job timeline (job_id=%s trace_id=%s, %d spans, total %v) ===\n%s\n",
		full.JobID, full.TraceID, len(full.Spans),
		time.Duration(full.TotalNs), tj)
	prom, err := c.MetricsProm()
	if err != nil {
		return fmt.Errorf("fetching /metrics?format=prom: %w", err)
	}
	fmt.Printf("=== /metrics?format=prom ===\n%s", prom)
	return nil
}
