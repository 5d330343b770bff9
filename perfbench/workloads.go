package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"svto/internal/dist"
	"svto/internal/gen"
	"svto/internal/jobs"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/tech"
	"svto/pkg/svto"
)

// baselineVectors is the random-vector count of every request's
// unoptimized-leakage estimate (Result.BaselineNA), as in cmd/repro.
const baselineVectors = 1000

// job is one request of a workload's fixed job set.  key names its
// reference entry.
type job struct {
	key string
	req svto.Request
}

// workload is one named input set with the execution path it drives.
type workload struct {
	name string
	why  string
	// refs names the reference file the results are checked against; the
	// workload's own name when empty.
	refs string
	jobs func() ([]job, error)
	// solve runs one job untraced through the public entry point.
	solve func(ctx context.Context, sys *system, j job) (*svto.Result, error)
	// traced runs one job split into the layer calls, recording spans.
	traced func(ctx context.Context, sys *system, j job, t *tracer, jobID int64) (*svto.Result, error)
	// probes measures the per-layer figures no job span covers.
	probes  func(ctx context.Context, sys *system, jobs []job, t *tracer) error
	cluster bool
}

func (w *workload) refName() string {
	if w.refs != "" {
		return w.refs
	}
	return w.name
}

func (w *workload) setup(tmp string, trace bool) (*system, error) {
	base, err := svto.NewBaseline(svto.LibrarySpec{})
	if err != nil {
		return nil, err
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sys := &system{base: base, lib: lib, tmp: tmp}
	if w.cluster {
		if err := sys.startCluster(trace); err != nil {
			sys.close()
			return nil, err
		}
	}
	return sys, nil
}

var workloads = []*workload{
	{
		name:   "h1-suite",
		why:    "Heuristic 1 on the 11 paper profiles x {5,10,25}% penalty plus baselines: compile, greedy descents and random vectors, no tree or cluster",
		jobs:   h1Jobs,
		solve:  solveLocal,
		traced: tracedH1,
		probes: h1Probes,
	},
	{
		name:   "tree-loose",
		why:    "exhaustive Heuristic 2 on a 150-gate random circuit at 5%: no pruning, so leaf descents, an unused relax build and checkpoints dominate",
		jobs:   looseJobs,
		solve:  solveCheckpointed,
		traced: tracedLoose,
		probes: looseProbes,
	},
	{
		name:   "tree-tight",
		why:    "stream of small exhaustive Heuristic 2 searches on MuxBank shapes at 0/0.2%: the bound cascade prunes most state nodes, each job builds its own relax",
		jobs:   tightJobs,
		solve:  solveLocal,
		traced: tracedTight,
		probes: tightProbes,
	},
	{
		name:    "cluster",
		why:     "the tree-loose search as a jobs.Manager job on an in-process coordinator with one loopback shard per core: the only dist, jobs and lease path",
		refs:    "tree-loose",
		jobs:    looseJobs,
		solve:   solveCluster,
		traced:  tracedCluster,
		probes:  clusterProbes,
		cluster: true,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// benchText renders a generated circuit as inline .bench text: the
// program under test only ever sees the Request.
func benchText(c *netlist.Circuit) (string, error) {
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, c); err != nil {
		return "", err
	}
	return buf.String(), nil
}

func penaltyKey(p float64) string {
	return strconv.FormatFloat(p*100, 'g', -1, 64) + "%"
}

// h1Jobs is cmd/repro's Tables 3/4 job set: every paper profile at 5, 10
// and 25% penalty, with a random-vector baseline on the 5% requests.
func h1Jobs() ([]job, error) {
	var out []job
	for _, prof := range gen.Benchmarks() {
		c, err := prof.Build()
		if err != nil {
			return nil, err
		}
		text, err := benchText(c)
		if err != nil {
			return nil, err
		}
		for _, pen := range []float64{0.05, 0.10, 0.25} {
			req := svto.Request{
				Design: svto.DesignSpec{Bench: text, Name: prof.Name},
				Search: svto.SearchSpec{Algorithm: svto.Heuristic1, Penalty: pen},
			}
			if pen == 0.05 {
				req.Search.BaselineVectors = baselineVectors
			}
			out = append(out, job{key: prof.Name + "@" + penaltyKey(pen), req: req})
		}
	}
	return out, nil
}

// looseInputs sizes the distbench circuit: 2^11 leaves keep one search a
// few seconds long on 2 vCPUs.
const looseInputs, looseGates = 11, 150

// looseJobs is the single distbench search of tree-loose and cluster.
func looseJobs() ([]job, error) {
	c, err := gen.RandomLogic("distbench", 7, looseInputs, looseGates)
	if err != nil {
		return nil, err
	}
	text, err := benchText(c)
	if err != nil {
		return nil, err
	}
	return []job{{
		key: fmt.Sprintf("distbench-%d@5%%", looseInputs),
		req: svto.Request{
			Design: svto.DesignSpec{Bench: text, Name: "distbench"},
			Search: svto.SearchSpec{
				Algorithm:       svto.Heuristic2,
				Penalty:         0.05,
				Workers:         1,
				BaselineVectors: baselineVectors,
			},
		},
	}}, nil
}

// tightShapes are the MuxBank (select bits, banks) shapes of tree-tight;
// at six banks or more the cascade stops pruning.
var tightShapes = [][2]int{{1, 5}, {2, 2}, {3, 1}, {1, 4}, {1, 3}}

// tightPenalties are tree-tight's delay penalties.  Three penalties over
// five shapes make 15 jobs a pass, so neither the p50 nor the p90 of the
// job latencies falls on the boundary between two jobs' latencies.
var tightPenalties = []float64{0, 0.001, 0.002}

// relaxbenchKey is the job BENCH_relax.json recorded (11 inputs, 16
// gates, 0.2% penalty).
const relaxbenchKey = "mux1x5@0.2%"

func tightJobs() ([]job, error) {
	var out []job
	for _, sh := range tightShapes {
		name := fmt.Sprintf("mux%dx%d", sh[0], sh[1])
		c, err := gen.MuxBank(name, sh[0], sh[1])
		if err != nil {
			return nil, err
		}
		text, err := benchText(c)
		if err != nil {
			return nil, err
		}
		for _, pen := range tightPenalties {
			out = append(out, job{
				key: name + "@" + penaltyKey(pen),
				req: svto.Request{
					Design: svto.DesignSpec{Bench: text, Name: name},
					Search: svto.SearchSpec{
						Algorithm:       svto.Heuristic2,
						Penalty:         pen,
						Workers:         1,
						BaselineVectors: baselineVectors,
					},
				},
			})
		}
	}
	return out, nil
}

// system is a workload's set-up state: the shared characterized library
// and, on cluster, the jobs manager, coordinator and shards.
type system struct {
	base *svto.Baseline
	lib  *library.Library
	tmp  string

	mgr       *jobs.Manager
	coord     *dist.Coordinator
	srv       *http.Server
	shardStop context.CancelFunc
	wg        sync.WaitGroup // the HTTP server and the shards
	shards    int
	rpc       *rpcRecorder
	ckfs      *timingFS
	ckpts     atomic.Int64
}

func (s *system) close() {
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.shardStop != nil {
		s.shardStop()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.wg.Wait()
}

// clusterShards is the number of single-worker shards on cluster.  One
// shard keeps the load within the host's cores next to the coordinator
// and the manager, and its search visits the same nodes as the local
// Workers=1 search; with one shard per core the run-to-run spread of a
// job's CPU time is the lease and steal timing, not the program.
const clusterShards = 1

// startCluster opens a jobs manager whose tree searches route to an
// in-process coordinator served on loopback HTTP, and starts
// clusterShards single-worker shards.  With trace set, the shards' HTTP client
// and the coordinator's snapshot I/O go through recorders that time each
// call once a tracer is attached.
func (s *system) startCluster(trace bool) error {
	cfg := dist.Config{}
	client := &http.Client{Timeout: 60 * time.Second}
	if trace {
		s.rpc = &rpcRecorder{base: http.DefaultTransport}
		s.ckfs = &timingFS{}
		cfg.FS = s.ckfs
		client.Transport = s.rpc
	}
	s.coord = dist.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: s.coord.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()

	s.mgr, err = jobs.Open(jobs.Config{
		StateDir:           filepath.Join(s.tmp, "jobs"),
		CheckpointInterval: time.Second,
		Cluster:            s.coord,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.shardStop = cancel
	s.shards = clusterShards
	for i := 0; i < s.shards; i++ {
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			dist.RunShard(ctx, dist.ShardConfig{
				Coordinator:  url,
				Name:         fmt.Sprintf("shard-%d", i),
				Workers:      1,
				PollInterval: 20 * time.Millisecond,
				Client:       client,
			})
		}(i)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(s.coord.Shards()) < s.shards {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d shards registered", len(s.coord.Shards()), s.shards)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// solveLocal runs a job through svto.Run on the shared baseline.
func solveLocal(ctx context.Context, sys *system, j job) (*svto.Result, error) {
	return svto.Run(ctx, j.req, svto.RunOptions{Baseline: sys.base})
}

// solveCheckpointed runs a job through svto.Run with checkpointing on, as
// the daemon does, so the pool engine and snapshot writes run.
func solveCheckpointed(ctx context.Context, sys *system, j job) (*svto.Result, error) {
	return svto.Run(ctx, j.req, svto.RunOptions{
		Baseline:   sys.base,
		Checkpoint: svto.Checkpoint{Path: sys.ckptPath(), Interval: time.Second},
	})
}

func (s *system) ckptPath() string {
	return filepath.Join(s.tmp, fmt.Sprintf("job%d.ckpt", s.ckpts.Add(1)))
}

// solveCluster submits a job to the manager and waits for its record to
// turn terminal.
func solveCluster(ctx context.Context, sys *system, j job) (*svto.Result, error) {
	res, _, err := submitAndWait(ctx, sys, j)
	return res, err
}

func submitAndWait(ctx context.Context, sys *system, j job) (*svto.Result, jobs.Record, error) {
	v, err := sys.mgr.Submit(j.req)
	if err != nil {
		return nil, jobs.Record{}, err
	}
	for !v.Status.Terminal() {
		select {
		case <-ctx.Done():
			return nil, v.Record, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if v, err = sys.mgr.Get(v.ID); err != nil {
			return nil, jobs.Record{}, err
		}
	}
	if v.Status != jobs.StatusDone {
		return nil, v.Record, fmt.Errorf("job %s %s: %s", v.ID, v.Status, v.Error)
	}
	var res svto.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return nil, v.Record, fmt.Errorf("decoding job %s result: %w", v.ID, err)
	}
	if err := sys.mgr.Delete(v.ID); err != nil {
		return nil, v.Record, err
	}
	return &res, v.Record, nil
}
