// Command loadgen storms a VisClean cluster with concurrent
// oracle-backed cleaning sessions and writes the latency and placement
// profile as a JSON report (see internal/loadgen).
//
// Two modes:
//
//	loadgen -self 2 -sessions 200 -concurrency 200        # self-contained: spins 2 shards + router in-process
//	loadgen -router http://127.0.0.1:8080 -sessions 200   # external: storm an already-running cluster
//
// Self mode binds every shard and the router to ephemeral 127.0.0.1
// ports, points all shards at one shared snapshot directory (the
// cluster durability substrate, DESIGN.md §9), runs the storm, and
// tears everything down — one process, no orchestration.
//
// In external mode, pass -shards with the shard base URLs to get the
// sessions-per-shard column; without it the report omits placement.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"visclean/internal/cluster"
	"visclean/internal/loadgen"
	"visclean/internal/obs"
	"visclean/internal/service"
	"visclean/internal/web"
)

func main() {
	self := flag.Int("self", 0, "spin up N in-process shards + router instead of targeting a running cluster")
	router := flag.String("router", "", "router (or single shard) base URL to storm (external mode)")
	shards := flag.String("shards", "", "comma-separated shard base URLs for the placement scrape (external mode)")
	sessions := flag.Int("sessions", 200, "total sessions to run")
	concurrency := flag.Int("concurrency", 0, "max sessions in flight (default: all)")
	iters := flag.Int("iters", 2, "iterations per session")
	dataset := flag.String("dataset", "D1", "dataset: D1, D2 or D3")
	scale := flag.Float64("scale", 0.002, "dataset scale factor")
	seed := flag.Int64("seed", 1, "base seed; sessions spread over a few consecutive seeds")
	k := flag.Int("k", 10, "CQG size")
	selector := flag.String("selector", "gss", "CQG selection algorithm")
	workers := flag.Int("workers", 0, "iteration workers per in-process shard (default: NumCPU)")
	out := flag.String("out", "loadgen.json", "report output path")
	verbose := flag.Bool("v", false, "log per-session failures and progress")
	flag.Parse()

	if err := run(*self, *router, *shards, *sessions, *concurrency, *iters,
		*dataset, *scale, *seed, *k, *selector, *workers, *out, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// selfShard is one in-process shard: registry + web server on a real
// localhost listener.
type selfShard struct {
	reg *service.Registry
	srv *http.Server
	url string
}

func startShard(snapDir string, maxSessions, workers int) (*selfShard, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := service.NewRegistry(service.Config{
		MaxSessions: maxSessions,
		Workers:     workers,
		SnapshotDir: snapDir,
		Logf:        func(string, ...any) {},
	})
	ws := web.New(web.Config{Registry: reg})
	ws.SetReady(true)
	srv := &http.Server{Handler: ws.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &selfShard{reg: reg, srv: srv, url: "http://" + ln.Addr().String()}, nil
}

func run(self int, routerURL, shardList string, sessions, concurrency, iters int,
	dataset string, scale float64, seed int64, k int, selector string,
	workers int, out string, verbose bool) error {
	logf := func(string, ...any) {}
	if verbose {
		logf = log.Printf
	}
	var shardURLs []string
	if self > 0 {
		obs.SetEnabled(true)
		if workers <= 0 {
			workers = runtime.NumCPU()
		}
		snapDir, err := os.MkdirTemp("", "loadgen-snapshots-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(snapDir)
		var shardsUp []*selfShard
		defer func() {
			for _, sh := range shardsUp {
				_ = sh.srv.Close()
				sh.reg.Shutdown()
			}
		}()
		for i := 0; i < self; i++ {
			sh, err := startShard(snapDir, sessions+8, workers)
			if err != nil {
				return err
			}
			shardsUp = append(shardsUp, sh)
			shardURLs = append(shardURLs, sh.url)
		}
		rt, err := cluster.New(cluster.Config{
			Shards:         shardURLs,
			HealthInterval: 250 * time.Millisecond,
			Logf:           logf,
		})
		if err != nil {
			return err
		}
		defer rt.Close()
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		rsrv := &http.Server{Handler: rt.Handler()}
		go func() { _ = rsrv.Serve(rln) }()
		defer rsrv.Close()
		routerURL = "http://" + rln.Addr().String()
		log.Printf("loadgen: self cluster up: router %s over %d shard(s)", routerURL, self)
	} else {
		if routerURL == "" {
			return fmt.Errorf("pass -router URL or -self N")
		}
		for _, s := range strings.Split(shardList, ",") {
			if s = strings.TrimSpace(s); s != "" {
				shardURLs = append(shardURLs, strings.TrimRight(s, "/"))
			}
		}
	}

	rep, err := loadgen.Run(loadgen.Options{
		BaseURL:     routerURL,
		Shards:      shardURLs,
		Sessions:    sessions,
		Concurrency: concurrency,
		Iterations:  iters,
		Spec: loadgen.SpecJSON{
			Dataset: dataset, Scale: scale, Seed: seed,
			K: k, Selector: selector,
		},
		Logf: logf,
	})
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	log.Printf("loadgen: %d/%d sessions completed in %.1fs — answers p50=%.1fms p99=%.1fms (n=%d), iterate p99=%.1fms, 503s=%d, report: %s",
		rep.Completed, rep.Sessions, rep.ElapsedSec,
		rep.Answer.P50Ms, rep.Answer.P99Ms, rep.Answer.Count,
		rep.Iterate.P99Ms, rep.Rejects503, out)
	for _, sl := range rep.SessionsPerShard {
		log.Printf("loadgen:   shard %s: %d session(s)", sl.Shard, sl.Sessions)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d session(s) failed", rep.Failed)
	}
	return nil
}
