// Command sthproxy is the stateless routing tier in front of a fleet of
// sthistd nodes. Tables are placed on a consistent-hash ring (deterministic:
// any identically-configured proxy routes identically), target health is
// tracked by /readyz probes with hysteresis, and traffic degrades gracefully
// under node loss:
//
//   - POST /estimate: routed to the table's primary, retried with jittered
//     exponential backoff on the replica candidates, hedged to the first
//     replica when the primary is slow. A replica-served answer is marked
//     X-Sthist-Stale: true.
//   - POST /feedback: routed to the table's first ready candidate, exactly
//     once (not idempotent); 429/503 backpressure and Retry-After pass
//     through untouched.
//   - GET /stats, /snapshot, /tables: proxied reads. Snapshot ships are
//     timed into sthist_proxy_snapshot_ship_seconds.
//   - GET /livez, /readyz, /healthz, /cluster, /metrics: the proxy's own
//     surface. The proxy is ready while at least one target is.
//
// Usage:
//
//	sthproxy -addr :8090 -target http://n1:8080 -target http://n2:8080 -target http://n3:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sthist/internal/cluster"
	"sthist/internal/trace"
)

// targetList collects repeated -target flags.
type targetList []string

func (t *targetList) String() string { return strings.Join(*t, ",") }

func (t *targetList) Set(v string) error {
	*t = append(*t, strings.TrimSuffix(v, "/"))
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sthproxy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sthproxy", flag.ContinueOnError)
	var targets targetList
	fs.Var(&targets, "target", "sthistd base URL (repeatable; at least one required)")
	addr := fs.String("addr", ":8090", "listen address")
	vnodes := fs.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per target on the ring")
	replicas := fs.Int("replicas", cluster.DefaultReplicas, "candidate targets per table (primary + fallbacks)")
	reqTimeout := fs.Duration("request-timeout", cluster.DefaultRequestTimeout, "per-upstream-attempt timeout")
	maxRetries := fs.Int("max-retries", cluster.DefaultMaxRetries, "extra attempts for idempotent reads (0 disables)")
	retryBase := fs.Duration("retry-base", cluster.DefaultRetryBase, "base of the jittered exponential retry backoff")
	retryMax := fs.Duration("retry-max", cluster.DefaultRetryMax, "backoff cap")
	hedgeAfter := fs.Duration("hedge-after", cluster.DefaultHedgeAfter, "fire a hedge estimate at a replica after this long (negative disables)")
	probeInterval := fs.Duration("probe-interval", cluster.DefaultProbeInterval, "readiness probe interval")
	probeTimeout := fs.Duration("probe-timeout", cluster.DefaultProbeTimeout, "readiness probe timeout")
	downAfter := fs.Int("down-after", cluster.DefaultDownAfter, "consecutive failed probes before a target is unready")
	upAfter := fs.Int("up-after", cluster.DefaultUpAfter, "consecutive successful probes before a target that failed a probe is ready again (a target that never failed is ready on its first success)")
	traceSample := fs.Float64("trace-sample", 0,
		"probability of head-sampling a distributed trace per proxied request (0 disables tracing; error and slow traces are tail-retained regardless)")
	traceSlow := fs.Duration("trace-slow", trace.DefaultSlowThreshold,
		"tail-retain any trace containing a span at or above this latency (0 = default, negative disables)")
	readTimeout := fs.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "HTTP write timeout (snapshot ships ride this)")
	shutdownGrace := fs.Duration("shutdown-grace", 10*time.Second, "in-flight drain budget on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(targets) == 0 {
		return fmt.Errorf("at least one -target is required")
	}
	if *traceSample < 0 || *traceSample > 1 {
		return fmt.Errorf("bad -trace-sample %v (want 0..1)", *traceSample)
	}
	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Options{
			Service:       "sthproxy",
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
		})
	}

	p, err := cluster.NewProxy(cluster.ProxyOptions{
		Targets:        targets,
		Vnodes:         *vnodes,
		Replicas:       *replicas,
		RequestTimeout: *reqTimeout,
		MaxRetries:     *maxRetries,
		RetryBase:      *retryBase,
		RetryMax:       *retryMax,
		HedgeAfter:     *hedgeAfter,
		Tracer:         tracer,
		Health: cluster.MonitorOptions{
			Interval:  *probeInterval,
			Timeout:   *probeTimeout,
			DownAfter: *downAfter,
			UpAfter:   *upAfter,
			OnChange: func(target string, ready bool) {
				state := "ready"
				if !ready {
					state = "UNREADY"
				}
				log.Printf("sthproxy: target %s is now %s", target, state)
			},
		},
	})
	if err != nil {
		return err
	}
	p.Start()
	defer p.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{
		Addr:         *addr,
		Handler:      p.Handler(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	log.Printf("sthproxy listening on %s (%d targets, %d ready, failover deadline %v)",
		*addr, len(targets), p.Monitor().ReadyCount(), p.Monitor().FailoverDeadline())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("sthproxy: shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		log.Printf("sthproxy: drain: %v", err)
	}
	log.Printf("sthproxy: bye")
	return nil
}
