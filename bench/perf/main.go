// Command perf is the repository's benchmark: four named workloads driven
// against a real rerankd process, with the upstream stubbed inside the
// driver, every answer checked against a brute-force oracle and every
// ledger against the stub's own count. See README.md.
//
//	perf --workload W --seed N --seconds S --trace 0|1   one run, one JSON result line
//	perf all [-seed N] [-seconds S] [-runs R] [-out F]   every metric of every workload
//	perf compare A.json B.json                           two `all` outputs against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// hardTimeout bounds one run of one workload; the benchmark contract allows
// 180 s.
const hardTimeout = 170 * time.Second

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 18

// e2eRounds is how many times an end-to-end run executes the sequence.
const e2eRounds = 6

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}

// findRoot walks up from the working directory to the repository root: the
// directory that holds cmd/rerankd.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rerankd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (cmd/rerankd) above the working directory")
		}
		dir = parent
	}
}

// newEnv locates the repository and builds the rerankd binary under test
// into its .bench_build directory.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{buildDir: filepath.Join(root, ".bench_build")}
	e.logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...) }
	binDir := filepath.Join(e.buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	e.rerankdBin = filepath.Join(binDir, "rerankd")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", e.rerankdBin, "./cmd/rerankd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build rerankd: %v\n%s", err, out)
	}
	e.logf("built rerankd in %.1fs", time.Since(t0).Seconds())
	// Pinned only now, so that the build had every CPU.
	if err := pinDriver(); err != nil {
		return nil, fmt.Errorf("pin driver: %w", err)
	}
	return e, nil
}

// runOne performs one run of one workload under the hard timeout: the
// end-to-end metrics with trace off, the per-layer metrics with trace on.
func (e *env) runOne(sp spec, seed int64, seconds int, trace bool) (result, error) {
	timer := time.AfterFunc(hardTimeout, func() { fatalf("%s: hard timeout after %s", sp.name, hardTimeout) })
	defer timer.Stop()
	t0 := time.Now()

	rounds := e2eRounds
	if trace {
		rounds = 1 // the end-to-end part only supplies counts
	}
	run, err := e.runE2E(sp, seed, seconds, rounds)
	if err != nil {
		return result{}, err
	}
	res := result{Correct: run.correct(), Attempted: run.attempted(), Failed: run.failed()}
	for _, msg := range run.problems() {
		e.logf("%s: INVALID: %s", sp.name, msg)
	}
	if !trace {
		lat := run.fastest(func(o opResult) time.Duration { return o.latency })
		rung, _ := tailPercentile(lat, 95)
		e.logf("%s seed %d: %d rounds of %d ops in %.1fs; lat_p95_ms is the p%.0f of %d samples (%d beyond it)",
			sp.name, seed, rounds, run.ops, time.Since(t0).Seconds(), rung, len(lat), samplesBeyond(len(lat), rung))
		res.Metrics = withUnits(endToEndDefs, run.endToEnd())
		return res, nil
	}
	tr, err := e.runTraced(sp, seed, seconds)
	if err != nil {
		return result{}, err
	}
	values := run.rounds[0].layerCounts()
	for k, v := range tr.timings() {
		values[k] = v
	}
	rung, firstMs, streams := run.firstTuple()
	values["service.first_tuple_p90_ms"] = firstMs
	e.logf("%s seed %d: traced %d ops in %.1fs; spans in %s; service.first_tuple_p90_ms is the p%.0f of %d streams",
		sp.name, seed, tr.ops, time.Since(t0).Seconds(), tr.spanFile, rung, streams)
	res.Metrics = withUnits(perLayerDefs, values)
	return res, nil
}

func printResult(res result) {
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("perf", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name: cold-spill, warm-fit, rtt-open, durable-fit")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the measured work; fixes the operation count")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	_ = fs.Parse(args)
	sp, ok := specByName(*workload)
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	e, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	res, err := e.runOne(sp, *seed, *seconds, *trace == 1)
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	cleanup()
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func cmdAll(args []string) {
	fs := flag.NewFlagSet("perf all", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the measured work")
	runs := fs.Int("runs", 1, "end-to-end runs per workload")
	out := fs.String("out", "", "write the values of every run to this file, for compare")
	_ = fs.Parse(args)
	e, err := newEnv()
	if err != nil {
		fatalf("%v", err)
	}
	set := &runSet{Seconds: *seconds, Seed: *seed, Workloads: map[string]*workloadSet{}}
	ok := true
	for _, sp := range specs {
		ws := &workloadSet{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		set.Workloads[sp.name] = ws
		record := func(res result, into map[string][]float64) {
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			ok = ok && res.Correct
			for name, mv := range res.Metrics {
				into[name] = append(into[name], mv.Value)
			}
		}
		for i := 0; i < *runs; i++ {
			res, err := e.runOne(sp, *seed, *seconds, false)
			if err != nil {
				fatalf("%s: %v", sp.name, err)
			}
			record(res, ws.EndToEnd)
		}
		res, err := e.runOne(sp, *seed, *seconds, true)
		if err != nil {
			fatalf("%s: %v", sp.name, err)
		}
		record(res, ws.PerLayer)

		fmt.Printf("== %s (%d of %d operations failed)\n", sp.name, ws.Failed, ws.Attempted)
		for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			for _, d := range defs {
				vals := ws.EndToEnd[d.name]
				if vals == nil {
					vals = ws.PerLayer[d.name]
				}
				fmt.Printf("%-34s %14.4f %s\n", d.name, median(vals), d.unit)
			}
		}
	}
	cleanup()
	if *out != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			fatalf("encode run set: %v", err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func cmdCompare(args []string) {
	if len(args) != 2 {
		fatalf("usage: perf compare A.json B.json")
	}
	a, err := readRunSet(args[0])
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readRunSet(args[1])
	if err != nil {
		fatalf("%v", err)
	}
	if n := compareSets(os.Stdout, a, b); n > 0 {
		fmt.Printf("%d breach(es)\n", n)
		os.Exit(1)
	}
}

func main() {
	// The driver has one CPU for the generator, the clients and the stub:
	// collect its own garbage less often.
	debug.SetGCPercent(400)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatalf("interrupted")
	}()
	args := os.Args[1:]
	switch {
	case len(args) > 0 && args[0] == "all":
		cmdAll(args[1:])
	case len(args) > 0 && args[0] == "compare":
		cmdCompare(args[1:])
	default:
		cmdRun(args)
	}
}
