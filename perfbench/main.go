// Command perfbench is the wall-clock benchmark of the hierarchical
// parameter server. It runs one workload (see workloads.go and README.md)
// for one seed: it trains and checkpoints a model, then times rounds that
// restore the checkpoint and train on, and checks the outputs. It prints
// every metric by name and unit, and as its last line one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones of a run whose rounds alternate untraced and
// traced. It exits non-zero when a check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: train_local or train_remote")
		seed     = flag.Int64("seed", 1, "seed of the training data, the model initialization and the Predict stream")
		seconds  = flag.Float64("seconds", 10, "length of the measuring window (whole rounds, at least three)")
		traceOn  = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		traceDir = flag.String("trace-dir", "", "with --trace 1, also write every span as JSON under this directory")
		workDir  = flag.String("work-dir", filepath.Join(".bench_build", "work"), "directory for checkpoints and shard state, removed after the run")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traceOn == 1, *traceDir, *workDir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace bool, traceDir, workDir string, out io.Writer) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, have %g", seconds)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(workDir, w.name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	fmt.Fprintf(out, "workload %s: model %s (%d sparse params, %d non-zeros, dim %d, dense %v), %d nodes x %d GPUs, ",
		w.name, w.spec.Name, w.spec.SparseParams, w.spec.NonZerosPerExample, w.spec.EmbeddingDim, w.spec.HiddenLayers, w.nodes, w.gpus)
	fmt.Fprintf(out, "remote %v, serving %v, cache %.0f%%, depth %d, batch %d/node, checkpoint %d batches, %d batches/round\n",
		w.remote, w.serve, 100*w.cacheFrac, w.depth, w.batchSize, w.ckptBatches, w.roundBatches)
	fmt.Fprintf(out, "seed %d, window %gs, trace %v, %d CPUs, %s\n", seed, seconds, trace, runtime.NumCPU(), runtime.Version())

	b := &bench{
		w: w, seed: seed, seconds: time.Duration(seconds * float64(time.Second)),
		trace: trace, root: root, rec: newRecorder(),
	}
	if err := b.run(context.Background()); err != nil {
		return err
	}

	for _, r := range b.rounds {
		fmt.Fprintf(out, "round %d%s: set-up %.3fs (shards %.1fms, recover %.1fms, new %.1fms, restore %.1fms), run %.3fs, %.0f examples/s, cpu %.0fms, steal %.1f%%\n",
			r.index, map[bool]string{true: " (traced)"}[r.traced], r.setup.total.Seconds(), ms(r.setup.shardStart), ms(r.setup.recover),
			ms(r.setup.newTrainer), ms(r.setup.restore), r.wall.Seconds(), float64(r.examples)/r.wall.Seconds(), ms(r.cpu),
			100*r.steal)
	}
	fmt.Fprintf(out, "auc %.4f, reference %.4f, planted teacher %.4f (%d held-out examples)\n",
		b.final.auc, b.final.referenceAUC, b.final.teacherAUC, w.evalExamples)
	for _, c := range b.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(out, "check %s %s: %s\n", status, c.name, c.detail)
	}
	metrics := b.endToEnd()
	if trace {
		metrics = b.perLayer()
		if traceDir != "" {
			path, err := b.rec.write(traceDir, w.name, seed)
			if err != nil {
				return fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(out, "spans written to %s\n", path)
		}
	}
	if p, v := b.tail(); p > 0 {
		fmt.Fprintf(out, "predict latency p%d %.3fms over %d requests\n", p, v, len(latencies(b.final.samples)))
	}
	attempted, failed := b.counts()
	fmt.Fprintf(out, "attempted %d operations (%d batches, %d predict requests), failed %d\n",
		attempted, len(b.rounds)*w.roundBatches, len(b.final.samples), failed)
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{b.correct(), attempted, failed, map[string]map[string]any{}}
	for _, m := range metrics {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", m.name, m.value, m.unit)
		result.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !result.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}
