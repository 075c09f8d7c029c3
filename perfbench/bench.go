package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hps/internal/blockio"
	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/ps"
	"hps/internal/reference"
	"hps/internal/ssdps"
	"hps/internal/trainer"
)

// probeExamples is the size of the probe set the restore and serving
// checks score.
const probeExamples = 256

// bench is one run of one workload: it trains the checkpoint, checks that a
// restore reproduces it, times rounds of set-up plus Run until the
// measuring window is over, then evaluates and checks the outputs.
type bench struct {
	w       *workload
	seed    int64
	seconds time.Duration
	// trace alternates untraced and traced rounds; the traced ones put the
	// span-recording wrapper in front of every shard handler.
	trace bool
	root  string
	rec   *recorder

	checks []check
	setups []setupTimes
	rounds []*roundResult
	final  finalResult
}

// check is one output check.
type check struct {
	name   string
	ok     bool
	detail string
}

func (b *bench) require(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (b *bench) correct() bool {
	for _, c := range b.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// roundResult is what one timed round measured.
type roundResult struct {
	index     int
	traced    bool
	setup     setupTimes
	wall, cpu time.Duration
	examples  int64
	// peakRSS is the largest resident set (MiB) during set-up and Run.
	peakRSS float64
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during Run.
	steal  float64
	report trainer.Report
	// Go runtime activity during Run.
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	// shards sums the shard servers' counters (multi-process workloads).
	shards shardTotals
}

// shardTotals sums the public statistics of a deployment's shard servers.
type shardTotals struct {
	mem, ssdTier ps.Stats
	hits, misses int64
	ssd          ssdps.Stats
	dev          blockio.Stats
}

// finalResult is what the last round's trainer produced after Run.
type finalResult struct {
	auc, teacherAUC, referenceAUC float64
	evaluate                      time.Duration
	// samples is the Predict stream sent after the last Run, and serving
	// the shards' serving counters after it.
	samples []sample
	serving cluster.ServingStats
}

func (b *bench) run(ctx context.Context) error {
	w := b.w
	// The checkpoint every round resumes from, written the way a training
	// job leaves yesterday's model behind.
	d, err := deploy(w, b.dir("fixture"), w.ckptBatches, false, b.seed, b.rec, false)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := d.tr.Run(ctx); err != nil {
		d.close()
		return fmt.Errorf("checkpoint run: %w", err)
	}
	probe := makeRequest(heldOut(w), probeExamples)
	want, err := trainerPredict(d.tr, probe)
	if err != nil {
		d.close()
		return fmt.Errorf("checkpoint predict: %w", err)
	}
	if err := d.close(); err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}

	// A freshly restored trainer must score the probe set exactly as the
	// checkpointing trainer did. Its set-up is one more set-up sample.
	d, err = b.restore("verify", false)
	if err != nil {
		return err
	}
	got, err := trainerPredict(d.tr, probe)
	if err != nil {
		b.teardown(d)
		return fmt.Errorf("restored predict: %w", err)
	}
	diff := mismatches(want, got)
	b.require("restore_reproduces_scores", diff == 0,
		"%d of %d probe scores differ after restore", diff, len(want))
	b.setups = append(b.setups, d.setup)
	if err := b.teardown(d); err != nil {
		return err
	}

	minRounds := 3
	if b.trace {
		minRounds = 4 // two untraced and two traced
	}
	start := time.Now()
	for r := 0; ; r++ {
		d, rr, err := b.round(ctx, r)
		if err != nil {
			return err
		}
		b.rounds = append(b.rounds, rr)
		b.setups = append(b.setups, rr.setup)
		// A traced run ends on a traced round, so the final Predict stream
		// goes through the wrapped handlers.
		if r+1 >= minRounds && time.Since(start) >= b.seconds && rr.traced == b.trace {
			return b.finish(d)
		}
		if err := b.teardown(d); err != nil {
			return err
		}
	}
}

func (b *bench) dir(name string) string { return filepath.Join(b.root, name) }

// restore sets up a deployment over a fresh copy of the checkpoint. The
// copy and a garbage collection happen before set-up starts.
func (b *bench) restore(name string, wrap bool) (*deployment, error) {
	dir := b.dir(name)
	if err := copyTree(b.dir("fixture"), dir); err != nil {
		return nil, fmt.Errorf("copy checkpoint: %w", err)
	}
	runtime.GC()
	d, err := deploy(b.w, dir, b.w.ckptBatches+b.w.roundBatches, true, b.seed, b.rec, wrap)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return d, nil
}

func (b *bench) teardown(d *deployment) error {
	err := d.close()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// round restores the checkpoint and times one Run of roundBatches batches.
// The deployment stays up for the caller.
func (b *bench) round(ctx context.Context, r int) (*deployment, *roundResult, error) {
	w := b.w
	rr := &roundResult{index: r, traced: b.trace && r%2 == 1}
	b.rec.round.Store(int64(r))
	rss := startRSSSampler()
	defer func() { rr.peakRSS = rss.finish() }()
	d, err := b.restore(fmt.Sprintf("round-%d", r), rr.traced)
	if err != nil {
		return nil, nil, err
	}
	rr.setup = d.setup

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	tot0, st0 := cpuTicks()
	runID := b.rec.newID()
	b.rec.phase.Store(runID)
	start := time.Now()
	err = d.tr.Run(ctx)
	rr.wall = time.Since(start)
	rr.cpu = cpuTime() - cpu0
	tot1, st1 := cpuTicks()
	if tot1 > tot0 {
		rr.steal = float64(st1-st0) / float64(tot1-tot0)
	}
	b.rec.record(runID, 0, "trainer.run", -1, w.roundBatches, start)
	b.rec.phase.Store(0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		b.teardown(d)
		return nil, nil, fmt.Errorf("round %d: run: %w", r, err)
	}
	rr.alloc = m1.TotalAlloc - m0.TotalAlloc
	rr.gcs = m1.NumGC - m0.NumGC
	rr.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	rr.examples = d.tr.Examples() - d.examples
	b.require(fmt.Sprintf("round_%d_examples", r), rr.examples == w.examplesPerRound(),
		"Run trained %d examples, want %d batches x %d x %d nodes = %d",
		rr.examples, w.roundBatches, w.batchSize, w.nodes, w.examplesPerRound())
	rr.report = d.tr.Report()
	for _, sh := range d.shards {
		t := &rr.shards
		t.mem = t.mem.Add(sh.mem.TierStats())
		cs := sh.mem.CacheStats()
		t.hits += cs.Hits
		t.misses += cs.Misses
		t.ssd = addSSD(t.ssd, sh.store.Stats())
		t.ssdTier = t.ssdTier.Add(sh.store.TierStats())
		t.dev = addDev(t.dev, sh.dev.Stats())
	}
	if w.remote {
		pushed := rr.report.Remote.KeysPushed
		b.require(fmt.Sprintf("round_%d_keys_pushed", r), pushed == rr.shards.mem.KeysPushed,
			"trainer pushed %d keys, shards applied %d", pushed, rr.shards.mem.KeysPushed)
	}
	return d, rr, nil
}

// finish evaluates the last round's trainer, sends the Predict stream,
// runs the remaining output checks and tears the deployment down.
func (b *bench) finish(d *deployment) error {
	w := b.w
	if w.serve {
		// Once Run has returned, every push is applied and the dense tower
		// republished: served scores must equal the trainer's own.
		diff, err := servedMismatches(w, d)
		if err != nil {
			b.teardown(d)
			return fmt.Errorf("served probe: %w", err)
		}
		b.require("served_equals_trainer", diff == 0,
			"%d of %d served probe scores differ from Trainer.Predict", diff, probeExamples)
	}
	evalID := b.rec.newID()
	b.rec.phase.Store(evalID)
	start := time.Now()
	auc, err := d.tr.Evaluate(heldOut(w), w.evalExamples)
	b.final.evaluate = time.Since(start)
	b.rec.record(evalID, 0, "trainer.evaluate", -1, w.evalExamples, start)
	b.rec.phase.Store(0)
	if err != nil {
		b.teardown(d)
		return fmt.Errorf("evaluate: %w", err)
	}
	b.final.auc = auc

	// The Predict stream scores the trained model: through the shards'
	// serving tier when the workload serves, through the trainer's own
	// Predict otherwise.
	gens := requestGens(w, b.seed, loadWorkers())
	loop := &openLoop{
		rate: w.predictRate, limit: w.predictRequests, workers: len(gens),
		next: func(i int) request { return makeRequest(gens[i], w.predictExamples) },
		send: func(_ int, req request) ([]float32, error) { return trainerPredict(d.tr, req) },
	}
	if w.serve {
		send, closeAll, err := shardSenders(w, d, len(gens))
		if err != nil {
			b.teardown(d)
			return fmt.Errorf("predict stream: %w", err)
		}
		defer closeAll()
		loop.send = send
	}
	b.final.samples = loop.run()
	for _, sh := range d.shards {
		b.final.serving = b.final.serving.Add(sh.srv.ServingStats())
	}
	trained := d.tr.Examples()
	if err := b.teardown(d); err != nil {
		return err
	}

	scores, labels := teacherScores(w)
	teacher, nPos, nNeg := scoredAUC(scores, labels)
	b.final.teacherAUC = teacher
	slack := 3 * aucStdErr(teacher, nPos, nNeg)
	b.require("auc_below_teacher", auc <= teacher+slack,
		"auc %.4f, planted teacher %.4f + slack %.4f", auc, teacher, slack)

	ref := reference.New(reference.Config{
		EmbeddingDim: w.spec.EmbeddingDim, Hidden: w.spec.HiddenLayers, Seed: b.seed,
	})
	gen := dataset.NewGenerator(w.data(), b.seed)
	for range trained {
		ref.TrainExample(gen.NextExample())
	}
	b.final.referenceAUC = ref.Evaluate(heldOut(w), w.evalExamples)
	b.require("auc_near_reference", auc >= b.final.referenceAUC-w.aucTolerance,
		"auc %.4f, reference on %d examples %.4f, tolerance %.3f",
		auc, trained, b.final.referenceAUC, w.aucTolerance)
	return nil
}

// teacherScores scores the held-out set with the dataset's planted model.
func teacherScores(w *workload) (scores, labels []float64) {
	gen := heldOut(w)
	for range w.evalExamples {
		ex := gen.NextExample()
		scores = append(scores, gen.TeacherLogit(ex.Features))
		labels = append(labels, float64(ex.Label))
	}
	return scores, labels
}

// servedMismatches scores the probe set through shard 0's serving tier and
// counts the scores that differ from Trainer.Predict.
func servedMismatches(w *workload, d *deployment) (int, error) {
	t := cluster.NewTCPTransport(map[int]string{0: d.shards[0].tcp.Addr()}, w.spec.EmbeddingDim)
	defer t.Close()
	gen := heldOut(w)
	diff := 0
	for n := 0; n < probeExamples; n += w.predictExamples {
		req := makeRequest(gen, w.predictExamples)
		served, err := t.Predict(0, req)
		if err != nil {
			return 0, err
		}
		want, err := trainerPredict(d.tr, req)
		if err != nil {
			return 0, err
		}
		diff += mismatches(want, served)
	}
	return diff, nil
}

// mismatches counts positions where a and b differ bit for bit.
func mismatches(a, b []float32) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			n++
		}
	}
	return n
}

func addSSD(a, b ssdps.Stats) ssdps.Stats {
	a.Files += b.Files
	a.LiveParams += b.LiveParams
	a.StaleParams += b.StaleParams
	a.Compactions += b.Compactions
	a.CompactedFiles += b.CompactedFiles
	a.Loads += b.Loads
	a.Dumps += b.Dumps
	a.UsageBytes += b.UsageBytes
	return a
}

func addDev(a, b blockio.Stats) blockio.Stats {
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.LogicalBytesRead += b.LogicalBytesRead
	a.LogicalBytesWritten += b.LogicalBytesWritten
	a.PhysicalBytesRead += b.PhysicalBytesRead
	a.PhysicalBytesWritten += b.PhysicalBytesWritten
	a.Deletes += b.Deletes
	return a
}
