// Command perfbench is the repository benchmark. It drives the serving
// path through its public APIs on three workloads and prints the
// end-to-end metrics, or with -trace 1 the per-layer ones, as one JSON
// object on its last line of output.
//
//	crowd    64 in-process players, dense conflicts, single-lane engine
//	regions  256 in-process players, sparse conflicts, 2-lane router + journal
//	sockets  2 transport clients over 127.0.0.1, open loop at a fixed rate
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload crowd -seed 1 -seconds 20 -trace 0
//	perfbench -workload all -seed 1 -seconds 20
//
// The run exits 1, after printing its result with "correct": false,
// when any output check fails. The sockets pacer needs Linux (timerfd).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"seve/internal/action"
	"seve/internal/manhattan"
	"seve/internal/metrics"
	"seve/internal/wire"
)

// curWorld is the world the registered move decoder binds decoded moves
// to. Kinds register once per process; each rep generates its own world.
var curWorld atomic.Pointer[manhattan.World]

func init() {
	wire.RegisterKind(manhattan.KindMove, func(id action.ID, body []byte) (action.Action, error) {
		return manhattan.UnmarshalMove(curWorld.Load(), id, body)
	})
}

// repStats is everything one rep measured and counted.
type repStats struct {
	failed bool
	errs   []string

	setup, wall, cpu time.Duration
	rt               rtDelta
	heapPeak         uint64

	submitted, commits, drops int // timed phase
	// allSubmitted and allCommits count the whole rep, warm-up
	// included: the run's attempted and failed moves, and the
	// denominators of the counters that Metrics() and Stats() report for
	// the whole rep.
	allSubmitted, allCommits int
	lat, lag                 []float64 // µs: submit→commit, generator lateness

	upBytes, upFrames, downBytes, downFrames, downWrites int64
	batches, batchEnvs                                   int64

	engineNs int64 // time inside engine calls (fleets)
	dialNs   []int64

	srv    metrics.ServerStats
	router metrics.RouterStats

	reconciles, blindWrites, stableVersions, clients int

	walBytes                  int64
	groupCommits, checkpoints int
	lagMax                    uint64

	tracers []*tracer
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a
// traced one; BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_action", "us"},
	{"down_bytes_per_action", "bytes"},
	{"up_bytes_per_action", "bytes"},
}

var perLayer = []metricDef{
	{"goodput_aps", "1/s"},
	{"server_aps", "1/s"},
	{"commit_p50_us", "us"},
	{"commit_p99_us", "us"},
	{"drop_pct", "%"},
	{"gen.lag_p50_us", "us"},
	{"gen.lag_p99_us", "us"},
	{"manhattan.newmove_us", "us"},
	{"client.submit_us", "us"},
	{"client.batch_us", "us"},
	{"client.us_per_action", "us"},
	{"client.envs_per_batch", "count"},
	{"client.reconciles_per_1k", "count"},
	{"client.blind_writes_per_action", "count"},
	{"client.stable_versions", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.frames_per_action", "count"},
	{"wire.down_frame_bytes", "bytes"},
	{"engine.submit_us", "us"},
	{"engine.completion_us", "us"},
	{"engine.flush_us", "us"},
	{"engine.tick_us", "us"},
	{"engine.queue_scanned_per_action", "count"},
	{"engine.envs_per_reply", "count"},
	{"shard.epochs_per_1k", "count"},
	{"shard.fallback_pct", "%"},
	{"shard.spanning_pct", "%"},
	{"shard.lane_imbalance", "ratio"},
	{"shard.plan_share", "ratio"},
	{"integrity.audited_pct", "%"},
	{"integrity.violations", "count"},
	{"durable.group_commits_per_1k", "count"},
	{"durable.wal_bytes_per_action", "bytes"},
	{"durable.lag_max", "count"},
	{"durable.checkpoints", "count"},
	{"durable.close_ms", "ms"},
	{"transport.dial_ms", "ms"},
	{"transport.submit_us", "us"},
	{"transport.frames_coalesced_pct", "%"},
	{"transport.write_queue_drops", "count"},
	{"runtime.allocs_per_action", "count"},
	{"runtime.alloc_bytes_per_action", "bytes"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// workload is one traffic mix. A run of -seconds does reps(seconds)
// reps, each on its own world, so a seed always gives the same work:
// fleet reps play a fixed number of rounds, socket reps pace moves for
// their share of the run. The rep counts fit -seconds on a 2-core host.
type workload struct {
	name string
	reps func(seconds int) int
	run  func(seed int64, share time.Duration, traced bool, work string, epoch time.Time) *repStats
}

var workloads = []workload{
	{"crowd", func(s int) int { return max(2, s*2) },
		func(seed int64, _ time.Duration, traced bool, work string, epoch time.Time) *repStats {
			return runFleet(crowd, seed, traced, tmpDir(work), epoch)
		}},
	{"regions", func(s int) int { return max(2, s*5/4) },
		func(seed int64, _ time.Duration, traced bool, work string, epoch time.Time) *repStats {
			return runFleet(regions, seed, traced, tmpDir(work), epoch)
		}},
	{"sockets", func(s int) int { return max(2, s) },
		func(seed int64, share time.Duration, traced bool, _ string, epoch time.Time) *repStats {
			return runSockets(seed, share, traced, epoch)
		}},
}

// subSeed derives rep i's world seed, so one run covers several worlds.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func main() {
	var (
		name    = flag.String("workload", "", "crowd | regions | sockets | all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "approximate measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		work    = flag.String("work", ".bench_build", "directory for journals and span files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range selected {
		res := runWorkload(w, *seed, *seconds, *trace == 1, *work)
		ok = ok && res.Correct
		printResult(w.name, res, *trace == 1)
	}
	if !ok {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// extra holds the untraced run's rate, response-time and drop
	// figures, printed for reading but left out of the gated result.
	extra map[string]metricValue
	errs  []string
}

// ungated are the per-layer metrics an untraced run also prints: its
// reps measure them as well as a traced run's untraced half does.
var ungated = []string{"goodput_aps", "server_aps", "commit_p50_us", "commit_p99_us", "drop_pct"}

// runWorkload runs the reps of one invocation. An untraced run gives
// every rep its own world. A traced run pairs a traced and an untraced
// rep on each world, alternating which goes first: the untraced half
// supplies the tracing overhead and the per-layer figures tracing would
// distort (tails, rates, allocations).
func runWorkload(w workload, seed int64, seconds int, traced bool, work string) result {
	epoch := time.Now()
	n := w.reps(seconds)
	share := time.Duration(seconds) * time.Second / time.Duration(n)
	var plain, withTrace []*repStats
	if !traced {
		for i := 0; i < n; i++ {
			plain = append(plain, w.run(subSeed(seed, i), share, false, work, epoch))
		}
	} else {
		for i := 0; i < max(1, n/2); i++ {
			s := subSeed(seed, i)
			if i%2 == 0 {
				plain = append(plain, w.run(s, share, false, work, epoch))
				withTrace = append(withTrace, w.run(s, share, true, work, epoch))
			} else {
				withTrace = append(withTrace, w.run(s, share, true, work, epoch))
				plain = append(plain, w.run(s, share, false, work, epoch))
			}
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range append(append([]*repStats(nil), plain...), withTrace...) {
		res.Attempted += r.allSubmitted
		// A dropped move is a move the player asked for and did not get.
		res.Failed += r.allSubmitted - r.allCommits
		if r.failed {
			res.Correct = false
			res.errs = append(res.errs, r.errs...)
		}
	}
	if res.Attempted == 0 {
		res.Correct = false
		res.Attempted = 1
	}
	vals, defs := endToEndValues(plain), endToEnd
	if traced {
		vals, defs = layerValues(plain, withTrace), perLayer
		var tracers []*tracer
		for _, r := range withTrace {
			tracers = append(tracers, r.tracers...)
		}
		path := filepath.Join(work, "traces", w.name+".spans")
		if err := writeSpans(path, tracers); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	if !traced {
		lv := layerValues(plain, nil)
		res.extra = map[string]metricValue{}
		for _, d := range perLayer {
			if slices.Contains(ungated, d.name) {
				res.extra[d.name] = metricValue{Value: lv[d.name], Unit: d.unit}
			}
		}
	}
	return res
}

func endToEndValues(reps []*repStats) map[string]float64 {
	var setup, cpu []float64
	var commits, up, down float64
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		cpu = append(cpu, ratio(float64(r.cpu.Microseconds()), float64(r.commits)))
		commits += float64(r.commits)
		up += float64(r.upBytes)
		down += float64(r.downBytes)
	}
	// Timings are medians over the reps, so a burst of interference
	// during one rep does not move them; byte counts pool every rep.
	return map[string]float64{
		"setup_s":               median(setup),
		"cpu_us_per_action":     median(cpu),
		"down_bytes_per_action": ratio(down, commits),
		"up_bytes_per_action":   ratio(up, commits),
	}
}

// layerValues computes the per-layer metrics: span self times and layer
// counters from the traced reps, and from the untraced ones the
// figures tracing would distort.
func layerValues(plain, traced []*repStats) map[string]float64 {
	v := map[string]float64{}

	var srvAps, goodPlain, goodTraced, p50 []float64
	var lat, lag metrics.Recorder
	var submitted, commits, drops float64
	var rt rtDelta
	var heapPeak uint64
	for _, r := range plain {
		srvAps = append(srvAps, ratio(float64(r.submitted), float64(r.engineNs)/1e9))
		goodPlain = append(goodPlain, ratio(float64(r.commits), r.wall.Seconds()))
		var repLat metrics.Recorder
		for _, x := range r.lat {
			repLat.Add(x)
			lat.Add(x)
		}
		p50 = append(p50, repLat.Percentile(50))
		for _, x := range r.lag {
			lag.Add(x)
		}
		submitted += float64(r.submitted)
		commits += float64(r.commits)
		drops += float64(r.drops)
		rt.add(r.rt)
		heapPeak = max(heapPeak, r.heapPeak)
	}
	v["goodput_aps"] = median(goodPlain)
	v["server_aps"] = median(srvAps)
	v["commit_p50_us"] = median(p50)
	v["commit_p99_us"] = lat.Percentile(99)
	v["drop_pct"] = 100 * ratio(drops, submitted)
	v["gen.lag_p50_us"] = lag.Percentile(50)
	v["gen.lag_p99_us"] = lag.Percentile(99)
	v["runtime.allocs_per_action"] = ratio(float64(rt.allocs), commits)
	v["runtime.alloc_bytes_per_action"] = ratio(float64(rt.allocBytes), commits)
	v["runtime.gc_cpu_pct"] = 100 * ratio(rt.gcCPU, rt.totalCPU)
	v["runtime.heap_peak_mb"] = float64(heapPeak) / 1e6

	var st selfTimes
	var tc, allC, allSub float64
	var upF, downF, downB, downW, batches, envs float64
	var recon, blind, versions, clients float64
	var srv metrics.ServerStats
	var epochs, fallback, spanning, routed, imbalance, planNs, allNs float64
	var walBytes, groups, ckpts, lagMax, violations float64
	var dial []float64
	for _, r := range traced {
		goodTraced = append(goodTraced, ratio(float64(r.commits), r.wall.Seconds()))
		for _, t := range r.tracers {
			st.add(t)
		}
		tc += float64(r.commits)
		allC += float64(r.allCommits)
		allSub += float64(r.allSubmitted)
		upF += float64(r.upFrames)
		downF += float64(r.downFrames)
		downB += float64(r.downBytes)
		downW += float64(r.downWrites)
		batches += float64(r.batches)
		envs += float64(r.batchEnvs)
		recon += float64(r.reconciles)
		blind += float64(r.blindWrites)
		versions += float64(r.stableVersions)
		clients += float64(r.clients)
		srv.TotalQueueScans += r.srv.TotalQueueScans
		srv.TotalSubmitted += r.srv.TotalSubmitted
		srv.AuditsRun += r.srv.AuditsRun
		srv.CompletionsTaken += r.srv.CompletionsTaken
		srv.WriteQueueDrops += r.srv.WriteQueueDrops
		violations += float64(integrityViolations(r.srv))
		rs := r.router
		epochs += float64(rs.Epochs)
		fallback += float64(rs.FallbackEpochs)
		spanning += float64(rs.SpanningActions)
		routed += float64(rs.LocalActions + rs.CrossShardActions)
		imbalance += rs.LaneImbalance
		planNs += float64(rs.PlanNs)
		allNs += float64(rs.StampNs + rs.PlanNs + rs.CommitNs + rs.MergeNs + rs.InstallNs)
		walBytes += float64(r.walBytes)
		groups += float64(r.groupCommits)
		ckpts += float64(r.checkpoints)
		lagMax = max(lagMax, float64(r.lagMax))
		for _, d := range r.dialNs {
			dial = append(dial, float64(d)/1e6)
		}
	}
	nt := float64(len(traced))

	v["manhattan.newmove_us"] = st.meanUs(spNewMove)
	v["client.submit_us"] = st.meanUs(spClientSubmit)
	v["client.batch_us"] = st.meanUs(spClientBatch)
	v["client.us_per_action"] = ratio(st.totalUs(spClientSubmit, spClientBatch, spClientMsg), tc)
	v["client.envs_per_batch"] = ratio(envs, batches)
	v["client.reconciles_per_1k"] = 1000 * ratio(recon, allC)
	v["client.blind_writes_per_action"] = ratio(blind, allC)
	v["client.stable_versions"] = ratio(versions, clients)
	v["wire.encode_us"] = st.meanUs(spEncode)
	v["wire.decode_us"] = st.meanUs(spDecode)
	v["wire.frames_per_action"] = ratio(upF+downF, tc)
	v["wire.down_frame_bytes"] = ratio(downB, downF)
	v["engine.submit_us"] = st.meanUs(spEngineSubmit)
	v["engine.completion_us"] = st.meanUs(spEngineCompletion)
	v["engine.flush_us"] = st.meanUs(spEngineFlush)
	v["engine.tick_us"] = st.meanUs(spEngineTick)
	v["engine.queue_scanned_per_action"] = ratio(float64(srv.TotalQueueScans), float64(srv.TotalSubmitted))
	v["engine.envs_per_reply"] = ratio(envs, downF)
	v["shard.epochs_per_1k"] = 1000 * ratio(epochs, allSub)
	v["shard.fallback_pct"] = 100 * ratio(fallback, epochs)
	v["shard.spanning_pct"] = 100 * ratio(spanning, routed)
	v["shard.lane_imbalance"] = ratio(imbalance, nt)
	v["shard.plan_share"] = ratio(planNs, allNs)
	v["integrity.audited_pct"] = 100 * ratio(float64(srv.AuditsRun), float64(srv.CompletionsTaken))
	v["integrity.violations"] = violations
	v["durable.group_commits_per_1k"] = 1000 * ratio(groups, allC)
	v["durable.wal_bytes_per_action"] = ratio(walBytes, allC)
	v["durable.lag_max"] = lagMax
	v["durable.checkpoints"] = ratio(ckpts, nt)
	v["durable.close_ms"] = st.meanUs(spDurableClose) / 1e3
	v["transport.dial_ms"] = median(dial)
	v["transport.submit_us"] = st.meanUs(spTransportSubmit)
	if downW > 0 {
		v["transport.frames_coalesced_pct"] = 100 * ratio(downF-downW, downF)
	}
	v["transport.write_queue_drops"] = float64(srv.WriteQueueDrops)
	if g := median(goodPlain); g > 0 {
		v["trace.overhead_pct"] = 100 * (g - median(goodTraced)) / g
	}
	return v
}

// integrityViolations sums the verdict and rejection counters an honest
// fleet keeps at zero.
func integrityViolations(m metrics.ServerStats) int {
	return m.ContractBreaches + m.ForgedCompletions + m.AuditDivergences + m.QuarantinedClients +
		m.QuarantineRejected + m.RateLimited + m.WriteSetViolations + m.RadiusViolations
}

// printResult prints a readable table of the metrics, any failed
// checks, and then the JSON result as the last line.
func printResult(name string, res result, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Printf("# %s (%s): %d moves attempted, %d not committed, GOMAXPROCS=%d\n",
		name, kind, res.Attempted, res.Failed, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range ungated {
		if m, ok := res.extra[n]; ok {
			fmt.Printf("  %-34s %14.4f %s (not gated)\n", n, m.Value, m.Unit)
		}
	}
	for _, e := range res.errs {
		fmt.Printf("  CHECK FAILED: %s\n", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}
