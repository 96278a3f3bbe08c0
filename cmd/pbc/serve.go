package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/allocclient"
	"repro/internal/allocsvc"
	"repro/internal/decisiontable"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/telemetry"
	"repro/internal/telemetry/wire"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// serveConfig parameterizes the telemetry server's background load: a
// fault-injected resilient node run per round, re-seeded each round so
// the metrics keep moving.
type serveConfig struct {
	platform hw.Platform
	work     workload.Workload
	bound    units.Power
	units    float64
	dt       time.Duration
	spec     faults.Spec
	seed     uint64
	rounds   int           // 0 = run until the context is cancelled
	interval time.Duration // pause between rounds
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	addr := fs.String("addr", "127.0.0.1:9120", "listen address for /metrics and /healthz")
	budget := fs.Float64("budget", 208, "node power bound in watts")
	unitsN := fs.Float64("units", 2e12, "work units per background round")
	dtMs := fs.Int("dt", 250, "control loop step in milliseconds")
	spec := fs.String("fault-spec", defaultFaultSpec, "fault spec for the background load")
	seed := fs.Uint64("fault-seed", 1, "base fault seed; round n uses seed+n")
	rounds := fs.Int("rounds", 0, "background rounds to run (0 = until interrupted)")
	intervalMs := fs.Int("interval", 2000, "pause between rounds in milliseconds")
	drainMs := fs.Int("drain", 5000, "graceful-shutdown drain budget in milliseconds")
	apiWorkers := fs.Int("api-workers", 0, "allocation API worker pool size (0 = GOMAXPROCS)")
	apiQueue := fs.Int("api-queue", 0, "allocation API queue depth before 429 (0 = default, negative disables)")
	apiTimeoutMs := fs.Int("api-timeout", 5000, "allocation API default per-request deadline in milliseconds")
	peers := fs.String("peers", "", "comma-separated base URLs of every shard in the topology (including this one); served on /v1/peers for client discovery")
	tables := fs.Bool("tables", false, "precompute per-(platform, workload) decision tables at startup and serve covered requests from them")
	binary := fs.Bool("binary", false, "accept the compact binary protocol (Content-Type: "+allocsvc.BinaryContentType+") on the /v1 routes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The background load drives the CPU control stack (RAPL watchdog,
	// fault injector), so GPU platforms cannot back it. Reject the
	// platform name itself, before workload resolution: `-platform
	// titanv` is wrong here no matter which workload rides along.
	p, err := hw.PlatformByName(*platform)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("serve's background load needs a CPU platform; %q is a %s platform (supported: %s)",
			p.Name, p.Kind, cpuPlatformNames())
	}
	_, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	sp, err := faults.ParseSpec(*spec)
	if err != nil {
		return err
	}
	cfg := serveConfig{
		platform: p, work: w,
		bound: units.Power(*budget), units: *unitsN,
		dt:   time.Duration(*dtMs) * time.Millisecond,
		spec: sp, seed: *seed, rounds: *rounds,
		interval: time.Duration(*intervalMs) * time.Millisecond,
	}

	reg := telemetry.New()
	wire.Instrument(reg)
	defer wire.Instrument(nil)
	wire.InstrumentEngine(reg)
	var health telemetry.Health
	svcCfg := allocsvc.Config{
		Workers:        *apiWorkers,
		QueueDepth:     *apiQueue,
		DefaultTimeout: time.Duration(*apiTimeoutMs) * time.Millisecond,
		Registry:       reg,
		Binary:         *binary,
	}
	if *tables {
		set := decisiontable.New(decisiontable.Config{})
		warmStart := time.Now()
		stats := set.Warm()
		fmt.Printf("decision tables warm in %s: %d coord + %d plan tables (%d/%d pairs degraded to the exact path)\n",
			time.Since(warmStart).Round(time.Millisecond),
			stats.CoordTables, stats.PlanTables, stats.CoordSkipped, stats.PlanSkipped)
		svcCfg.Tables = set
	}
	svc := allocsvc.New(svcCfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving /metrics, /healthz, and the allocation API (%s) on http://%s (fault seed %d, spec %s)\n",
		strings.Join(allocsvc.Paths(), ", "), ln.Addr(), cfg.seed, sp)

	loopDone := make(chan error, 1)
	go func() {
		loopDone <- serveRounds(ctx, cfg, reg, &health)
		stop() // a finite round budget shuts the server down too
	}()

	topo := allocclient.Peers{Self: "http://" + ln.Addr().String()}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				topo.Peers = append(topo.Peers, strings.TrimRight(p, "/"))
			}
		}
	}

	drain := time.Duration(*drainMs) * time.Millisecond
	err = telemetry.ServeUntil(ctx, ln, newServeMux(reg, &health, svc, topo), drain)
	// The HTTP server has stopped accepting; drain the allocation
	// service too, so coalesced waiters finish instead of being
	// abandoned mid-computation (chaos restarts depend on this).
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if cerr := svc.Close(dctx); cerr != nil && err == nil {
		err = fmt.Errorf("draining allocation service: %w", cerr)
	}
	if lerr := <-loopDone; lerr != nil && err == nil {
		err = lerr
	}
	return err
}

// cpuPlatformNames lists the catalog's CPU platforms for error messages.
func cpuPlatformNames() string {
	var names []string
	for _, p := range hw.AllPlatforms() {
		if p.Kind == hw.KindCPU {
			names = append(names, p.Name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// newServeMux routes the server's endpoints: Prometheus exposition on
// /metrics (with ?format=json|text variants), the health flag on
// /healthz, shard topology on /v1/peers, and — when a service is
// given — the allocation API (allocsvc.Paths).
func newServeMux(reg *telemetry.Registry, health *telemetry.Health, svc *allocsvc.Service, topo allocclient.Peers) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(reg))
	mux.Handle("/healthz", health.Handler())
	mux.HandleFunc("/v1/peers", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, _ := json.Marshal(topo)
		w.Write(append(b, '\n'))
	})
	if svc != nil {
		svc.Register(mux)
	}
	return mux
}

// serveRounds drives the background load: one fault-injected resilient
// node run per round, seeded seed+round, with the transition log's spans
// attached to the registry. Health reflects the last completed round.
func serveRounds(ctx context.Context, cfg serveConfig, reg *telemetry.Registry, health *telemetry.Health) error {
	log := &trace.EventLog{}
	reg.AttachTracer(log.Tracer())
	roundsRun := reg.Counter("serve_rounds_total", "Background fault rounds completed.")
	roundErrs := reg.Counter("serve_round_errors_total", "Background fault rounds that failed.")

	for round := 0; cfg.rounds == 0 || round < cfg.rounds; round++ {
		if ctx.Err() != nil {
			return nil
		}
		inj := faults.NewInjector(cfg.spec, cfg.seed+uint64(round))
		res, err := faults.RunNode(cfg.platform, cfg.work, cfg.bound, cfg.units, cfg.dt, inj, log)
		if err != nil {
			roundErrs.Inc()
			health.SetUnhealthy(fmt.Sprintf("round %d failed: %v", round, err))
			return err
		}
		roundsRun.Inc()
		updateServeHealth(health, res, round)

		if cfg.interval > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(cfg.interval):
			}
		}
	}
	return nil
}

// updateServeHealth maps a completed round's outcome onto the health
// flag: a round in which the watchdog had to engage its failsafe clamp
// marks the node unhealthy until a clean round follows.
func updateServeHealth(health *telemetry.Health, res faults.NodeRunResult, round int) {
	if res.WatchdogEngagements > 0 {
		health.SetUnhealthy(fmt.Sprintf("watchdog engaged %d time(s) in round %d",
			res.WatchdogEngagements, round))
		return
	}
	health.SetHealthy()
}
