package main

import (
	"slices"
	"time"

	"hps/internal/ps"
	"hps/internal/trainer"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// counts returns the operations the run attempted and the ones that
// failed: every batch of every timed Run, and every Predict request.
func (b *bench) counts() (attempted, failed int) {
	attempted = len(b.rounds) * b.w.roundBatches
	for _, s := range b.final.samples {
		attempted++
		if s.failed {
			failed++
		}
	}
	return attempted, failed
}

// selected returns the rounds of the wanted kind: traced or untraced.
func (b *bench) selected(traced bool) []*roundResult {
	var out []*roundResult
	for _, r := range b.rounds {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

func throughputs(rounds []*roundResult) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, float64(r.examples)/r.wall.Seconds())
	}
	return out
}

// latencies returns the sorted latencies of the Predict requests that
// succeeded, in milliseconds; failed ones are counted in failed instead.
func latencies(samples []sample) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed {
			out = append(out, ms(s.latency))
		}
	}
	slices.Sort(out)
	return out
}

// endToEnd computes the metrics a user of the system sees, from the
// untraced rounds.
func (b *bench) endToEnd() []metric {
	rounds := b.selected(false)
	var setups, cpu, rss []float64
	for _, s := range b.setups {
		setups = append(setups, s.total.Seconds())
	}
	for _, r := range rounds {
		cpu = append(cpu, ms(r.cpu)/float64(r.examples)*1000)
		rss = append(rss, r.peakRSS)
	}
	out := []metric{
		{"train_examples_per_s", median(throughputs(rounds)), "examples/s"},
		{"auc", b.final.auc, "AUC"},
		{"setup_s", median(setups), "s"},
		{"peak_rss_mb", median(rss), "MiB"},
		{"cpu_ms_per_1k_examples", median(cpu), "ms"},
	}
	lat := latencies(b.final.samples)
	return append(out, metric{"serve_p50_ms", percentile(lat, 50), "ms"})
}

// tail returns the highest Predict-latency percentile the run's samples
// support (ten samples beyond it; p99 from 1,000 samples on) and its value.
func (b *bench) tail() (p int, value float64) {
	lat := latencies(b.final.samples)
	p = tailPercentile(len(lat))
	return p, percentile(lat, float64(p))
}

// perLayer computes the per-layer metrics from the traced rounds, named
// after the module each describes.
func (b *bench) perLayer() []metric {
	w := b.w
	rounds := b.selected(true)
	in := make(map[int]bool, len(rounds))
	for _, r := range rounds {
		in[r.index] = true
	}
	nr := float64(len(rounds))
	batches := nr * float64(w.roundBatches)
	var (
		examples                                       float64
		busy, stalled                                  [4]time.Duration
		unattributed                                   time.Duration
		memKeys, hbmKeys, ssdLoads, compactions, dumps float64
		hitRatio, readAmp                              float64
		alloc, gcs, steal                              float64
		gcPause                                        time.Duration
		news, restores, starts, recovers               []float64
	)
	var hits, lookups, pulls, pushes, calls, retries, wireBytes float64
	var pullWall, pushWall time.Duration
	var physRead, logRead float64
	for _, r := range rounds {
		rep := r.report
		examples += float64(r.examples)
		var sum, peak time.Duration
		for i, s := range rep.Stages {
			busy[i] += s.WallBusy
			stalled[i] += s.WallStalled
			sum += s.WallBusy
			peak = max(peak, s.WallBusy)
		}
		// At depth 1 the stages run one after another, so the wall time
		// they do not cover is unattributed; deeper pipelines overlap them
		// and the busiest stage paces the run.
		if w.depth == 1 {
			unattributed += r.wall - sum
		} else {
			unattributed += r.wall - peak
		}
		hbmKeys += float64(tier(rep, 0).KeysPulled)
		alloc += float64(r.alloc)
		steal += r.steal / nr
		gcs += float64(r.gcs)
		gcPause += r.gcPause
		news = append(news, ms(r.setup.newTrainer))
		restores = append(restores, ms(r.setup.restore))
		starts = append(starts, ms(r.setup.shardStart))
		recovers = append(recovers, ms(r.setup.recover))
		if rep.Remote == nil {
			memKeys += float64(tier(rep, 1).KeysPulled)
			hitRatio += rep.CacheHitRate / nr
			ssdLoads += float64(rep.SSD.Loads)
			compactions += float64(rep.SSD.Compactions)
			dumps += float64(tier(rep, 2).KeysPushed)
			readAmp += rep.ReadAmplification / nr
			continue
		}
		t := r.shards
		memKeys += float64(t.mem.KeysPulled)
		hits += float64(t.hits)
		lookups += float64(t.hits + t.misses)
		ssdLoads += float64(t.ssd.Loads)
		compactions += float64(t.ssd.Compactions)
		dumps += float64(t.ssdTier.KeysPushed)
		physRead += float64(t.dev.PhysicalBytesRead)
		logRead += float64(t.dev.LogicalBytesRead)
		net := rep.Remote
		pulls += float64(net.Pulls)
		pushes += float64(net.Pushes)
		pullWall += net.PullWall
		pushWall += net.PushWall
		calls += float64(net.Calls)
		retries += float64(net.Retries)
		wireBytes += float64(net.WireBytes)
	}
	if lookups > 0 {
		hitRatio = hits / lookups
	}
	if logRead > 0 {
		readAmp = physRead / logRead
	}
	perBatch := func(d time.Duration) float64 { return div(ms(d), batches) }
	pullHandler := b.spanMean("memps.pull", in)
	pushHandler := b.spanMean("memps.push", in)
	predictHandler := b.spanMean("serving.predict", in)
	pullRPC, pushRPC := div(ms(pullWall), pulls), div(ms(pushWall), pushes)

	// The Predict stream runs after the last round, which a traced run
	// traces.
	var rpcSum time.Duration
	var lateness []time.Duration
	for _, s := range b.final.samples {
		rpcSum += s.rpc
		lateness = append(lateness, s.lateness)
	}
	predictOutside := 0.0
	if predictHandler > 0 {
		predictOutside = div(ms(rpcSum), float64(len(b.final.samples))) - predictHandler
	}
	sv := b.final.serving
	outside := func(rpc, handler float64) float64 {
		if rpc == 0 {
			return 0
		}
		return rpc - handler
	}

	_, p99 := b.tail()
	untraced := median(throughputs(b.selected(false)))
	traced := median(throughputs(rounds))
	return []metric{
		{"trainer.new_ms", median(news), "ms"},
		{"trainer.restore_ms", median(restores), "ms"},
		{"cluster.shard_start_ms", median(starts), "ms"},
		{"ssdps.recover_ms", median(recovers), "ms"},
		{"trainer.evaluate_ms", ms(b.final.evaluate), "ms"},
		{"pipeline.read_busy_ms", perBatch(busy[0]), "ms"},
		{"pipeline.pull_busy_ms", perBatch(busy[1]), "ms"},
		{"pipeline.train_busy_ms", perBatch(busy[2]), "ms"},
		{"pipeline.push_busy_ms", perBatch(busy[3]), "ms"},
		{"pipeline.read_stalled_ms", perBatch(stalled[0]), "ms"},
		{"pipeline.pull_stalled_ms", perBatch(stalled[1]), "ms"},
		{"pipeline.train_stalled_ms", perBatch(stalled[2]), "ms"},
		{"pipeline.push_stalled_ms", perBatch(stalled[3]), "ms"},
		{"pipeline.unattributed_ms", perBatch(unattributed), "ms"},
		{"memps.cache_hit_ratio", hitRatio, "ratio"},
		{"memps.pull_keys_per_batch", div(memKeys, batches), "keys"},
		{"memps.pull_handler_ms", pullHandler, "ms"},
		{"memps.push_handler_ms", pushHandler, "ms"},
		{"ssdps.loads_per_batch", div(ssdLoads, batches), "count"},
		{"ssdps.read_amplification", readAmp, "ratio"},
		{"ssdps.compactions", div(compactions, nr), "count"},
		{"ssdps.dumped_params", div(dumps, nr), "params"},
		{"hbmps.keys_per_batch", div(hbmKeys, batches), "keys"},
		{"cluster.pull_rpc_ms", pullRPC, "ms"},
		{"cluster.push_rpc_ms", pushRPC, "ms"},
		{"cluster.pull_outside_handler_ms", outside(pullRPC, pullHandler), "ms"},
		{"cluster.push_outside_handler_ms", outside(pushRPC, pushHandler), "ms"},
		{"cluster.wire_bytes_per_example", div(wireBytes, examples), "bytes"},
		{"cluster.rpcs_per_batch", div(calls, batches), "count"},
		{"cluster.retries", retries, "count"},
		{"serving.p99_ms", p99, "ms"},
		{"serving.predict_handler_ms", predictHandler, "ms"},
		{"serving.predict_outside_handler_ms", predictOutside, "ms"},
		{"serving.hotkey_hit_ratio", sv.CacheHitRate(), "ratio"},
		{"serving.peer_fetches_per_request", div(float64(sv.PeerFetches), float64(sv.Requests)), "count"},
		{"serving.coalesced_per_request", div(float64(sv.Coalesced), float64(sv.Requests)), "ratio"},
		{"serving.shed", float64(sv.Rejected), "count"},
		{"serving.staleness_max_epochs", float64(sv.StalenessMax), "epochs"},
		{"runtime.alloc_bytes_per_example", div(alloc, examples), "bytes"},
		{"runtime.gc_cycles", div(gcs, nr), "count"},
		{"runtime.gc_pause_ms", div(ms(gcPause), nr), "ms"},
		{"runtime.steal_pct", 100 * steal, "%"},
		{"generator.lateness_p99_ms", percentile(durationsMS(lateness), 99), "ms"},
		{"bench.trace_overhead_pct", div(100*(untraced-traced), untraced), "%"},
	}
}

// tier returns the report's i-th tier statistics (0 HBM-PS, 1 MEM-PS,
// 2 SSD-PS), or zero when the run has no such tier.
func tier(rep trainer.Report, i int) ps.Stats {
	if i < len(rep.Tiers) {
		return rep.Tiers[i].Stats
	}
	return ps.Stats{}
}

// spanMean is the mean duration in ms of the spans named name in the given
// rounds (0 without any).
func (b *bench) spanMean(name string, rounds map[int]bool) float64 {
	n, total := b.rec.sum(name, rounds)
	return div(ms(total), float64(n))
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
