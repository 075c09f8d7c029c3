package main

import (
	"fmt"
	"sort"

	"hps/internal/dataset"
	"hps/internal/model"
)

// heldOutSeed seeds the held-out evaluation set. It is fixed, so every run
// of a workload is scored on the same examples and only training varies
// with --seed.
const heldOutSeed = 424243

// workload is one fixed configuration of the system under test.
type workload struct {
	name string
	spec model.Spec
	// nodes x gpus is the topology; remote puts each node's MEM-PS shard
	// behind its own loopback TCP server, serve arms their serving tier
	// and sends the Predict stream to it.
	nodes, gpus   int
	remote, serve bool
	// cacheFrac is the MEM-PS cache capacity as a share of each shard.
	cacheFrac float64
	// depth is the pipeline's MaxInFlight.
	depth     int
	batchSize int
	// ckptBatches are trained once per run into the checkpoint every round
	// resumes from; roundBatches are trained by each timed Run.
	ckptBatches, roundBatches int
	// The open-loop Predict stream after the last Run sends
	// predictRequests requests of predictExamples examples at predictRate
	// requests/s: to the shards' serving tier with serve, through
	// Trainer.Predict otherwise.
	predictRate     float64
	predictExamples int
	predictRequests int
	// evalExamples is the held-out set size for AUC.
	evalExamples int
	// aucTolerance is how far auc may fall below the single-process
	// reference trained on as many examples.
	aucTolerance float64
}

func (w *workload) data() dataset.Config {
	return dataset.ForModel(w.spec.SparseParams, w.spec.NonZerosPerExample)
}

// cacheEntries is each shard's MEM-PS cache capacity, sized as `hps` and
// `hps serve` size it.
func (w *workload) cacheEntries() int {
	c := int(float64(w.spec.SparseParams/int64(w.nodes)) * w.cacheFrac)
	return max(c, 128)
}

// examplesPerRound is what one timed Run must train.
func (w *workload) examplesPerRound() int64 {
	return int64(w.roundBatches) * int64(w.batchSize) * int64(w.nodes)
}

// depthTolerance is the AUC tolerance against the sequential reference at
// pipeline depth 4. Pipelined runs are not reproducible, and their AUC
// varied from run to run down to 0.076 below the reference (see README).
const depthTolerance = 0.1

func workloads() map[string]*workload {
	tiny := model.TinySpec()
	a, _ := model.Get("A")
	a = a.Scaled(model.BenchScale)
	return map[string]*workload{
		// The three-tier path with a working set four times the memory
		// cache: misses, SSD-PS loads, dumps and compaction do the work.
		// Depth 1, because deeper in-process pipelines abort once SSD-PS
		// compaction starts (see README).
		"train_local": {
			name: "train_local", spec: tiny, nodes: 2, gpus: 2,
			cacheFrac: 0.25, depth: 1, batchSize: 256,
			ckptBatches: 100, roundBatches: 60,
			predictRate: 500, predictExamples: 1, predictRequests: 1000,
			evalExamples: 4000, aucTolerance: 0.03,
		},
		// Two shard servers over loopback with the whole shard cached: the
		// wire and pipeline overlap do the work, the SSD-PS idles. The
		// shards' serving tier is armed, and the Predict stream after Run
		// goes through it.
		"train_remote": {
			name: "train_remote", spec: a, nodes: 2, gpus: 2, remote: true, serve: true,
			cacheFrac: 1, depth: 4, batchSize: 256,
			ckptBatches: 40, roundBatches: 80,
			predictRate: 200, predictExamples: 4, predictRequests: 1000,
			evalExamples: 2000, aucTolerance: depthTolerance,
		},
	}
}

func lookupWorkload(name string) (*workload, error) {
	all := workloads()
	if w, ok := all[name]; ok {
		return w, nil
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
