// Command benchmark drives ras.System.Solve round after round on seeded,
// closed-loop workloads and reports end-to-end metrics from an untraced pass
// and per-layer metrics from a traced pass. README.md describes the
// workloads, the metrics and how they interact; BENCHMARK.json names them
// for the driver.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// measurement is one metric of a result.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one pass over one workload reports: the last line of its
// output, in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// record is a result with what identifies it: one line of a -json file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workload names (default: all)")
	seed := fs.Int64("seed", 1, "seed of the workload's event streams, one per episode")
	seconds := fs.Float64("seconds", 0, "run episodes (set-up + fixed rounds, each on its own event stream) for this long and report medians over them; 0 runs one episode")
	trace := fs.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	jsonPath := fs.String("json", "", "append one record per pass to this file (the input of -compare)")
	tracePath := fs.String("trace-out", "", "write the traced pass's spans to this file as JSON lines")
	smoke := fs.Bool("smoke", false, "tiny region and 3 rounds per workload: checks the plumbing, measures nothing")
	cmp := fs.Bool("compare", false, "compare the two -json files given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		regressed, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w := findWorkload(name)
			if w == nil {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}
	limit := time.Duration(*seconds * float64(time.Second))
	for _, w := range selected {
		if *smoke {
			w = w.smoke()
		}
		for _, tr := range []int{0, 1} {
			if *trace >= 0 && *trace != tr {
				continue
			}
			rec, err := measure(w, *seed, tr, limit, *tracePath, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			line, err := json.Marshal(rec.result)
			if err == nil && *jsonPath != "" {
				err = appendRecord(*jsonPath, rec)
			}
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	return 0
}

// smoke is the workload on the smoke shape with three rounds.
func (w *workload) smoke() *workload {
	s := *w
	s.shape, s.rounds, s.warmup = shapeSmoke, 3, 2
	return &s
}

// measure runs one pass over a workload: episodes until limit has passed, at
// least one, then every metric's median over them (for a per-layer count, its
// value in the first episode). -seed draws one event
// stream per episode, so a run's numbers rest on as many different streams
// as it has episodes and not on how kind one of them is; a pass stops before
// an episode that would end past limit. Pass 0 is untraced, through
// ras.System.Solve, and gives the end-to-end metrics. Pass 1 gives the
// per-layer metrics: each untraced reference episode is followed by the same
// episode through the benchmark's own traced wiring. Rounds on which those
// two produce different targets are counted, not fatal: the wiring is the
// same, but the solver breaks some ties differently from run to run
// (README.md, "Findings").
func measure(w *workload, seed int64, trace int, limit time.Duration, tracePath string, out io.Writer) (record, error) {
	metrics := endToEnd
	if trace == 1 {
		metrics = perLayer
	}
	rec := record{Workload: w.name, Seed: seed, Trace: trace, result: result{Correct: true, Metrics: map[string]measurement{}}}
	fmt.Fprintf(out, "%s trace=%d seed=%d shape=%s servers=%d reservations=%d rounds=%d\n",
		w.name, trace, seed, w.shape, w.shape.size(), w.shape.reservations, w.rounds)

	samples := map[string][]float64{}
	var last *episode
	streams := rand.New(rand.NewSource(seed))
	start := time.Now()
	var took []float64 // seconds per episode; a pass stops before an episode that would end past limit
	episodes := 0
	for ; episodes == 0 || time.Since(start).Seconds()+median(took) <= limit.Seconds(); episodes++ {
		epStart := time.Now()
		stream := streams.Int63()
		ep, err := runEpisode(w, stream, nil)
		if err != nil {
			return rec, err
		}
		values := ep.endToEndValues()
		if trace == 1 {
			ref := ep
			if ep, err = runEpisode(w, stream, newTracer()); err != nil {
				return rec, err
			}
			values = ep.perLayerValues(ref)
		}
		for i := range ep.rounds {
			rec.Attempted++
			if why := ep.rounds[i].failed; why != "" {
				rec.Failed++
				fmt.Fprintf(out, "  episode %d round %d failed: %s\n", episodes, i, why)
			}
		}
		for name, v := range values {
			samples[name] = append(samples[name], v)
		}
		last = ep
		took = append(took, time.Since(epStart).Seconds())
	}
	if trace == 1 && tracePath != "" {
		if err := last.tr.write(tracePath); err != nil {
			return rec, err
		}
	}
	fmt.Fprintf(out, "  %-36s %d\n  %-36s %d\n  %-36s %d\n", "episodes", episodes, "ops", rec.Attempted, "ops_failed", rec.Failed)
	for _, m := range metrics {
		v := median(samples[m.name])
		if trace == 1 && m.exact {
			// A layer's counts are those of the first stream, so that they
			// repeat at a fixed seed however many episodes there was time for.
			v = samples[m.name][0]
		}
		rec.Metrics[m.name] = measurement{Value: v, Unit: m.unit}
		fmt.Fprintf(out, "  %-36s %.6g %s\n", m.name, v, m.unit)
	}
	return rec, nil
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	return errors.Join(err, f.Close())
}
