package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"hps/internal/cluster"
	"hps/internal/dataset"
	"hps/internal/trainer"
)

// sample is one Predict request of an open-loop stream.
type sample struct {
	// latency runs from when the request was due to its reply; lateness
	// from when it was due to when it was sent; rpc from send to reply.
	latency, lateness, rpc time.Duration
	failed                 bool
}

// loadWorkers is how many goroutines (and connections) send requests: one
// per core, and never more than two.
func loadWorkers() int { return min(2, runtime.NumCPU()) }

// request is one Predict request in CSR form.
type request = cluster.PredictRequest

// makeRequest draws n examples from gen.
func makeRequest(gen *dataset.Generator, n int) request {
	var req request
	for range n {
		ex := gen.NextExample()
		req.Counts = append(req.Counts, uint32(len(ex.Features)))
		req.Keys = append(req.Keys, ex.Features...)
	}
	return req
}

// openLoop sends limit requests on a fixed schedule that never waits for
// replies: request i is due at start + i/rate. Worker w sends requests w,
// w+workers, ... in order on its own connection, so a slow reply delays
// the worker's next send; that request's latency still counts from when it
// was due.
type openLoop struct {
	rate    float64
	limit   int
	workers int
	// next builds worker w's next request; send issues it and returns the
	// scores.
	next func(w int) request
	send func(w int, req request) ([]float32, error)
}

// run generates the stream and returns its samples, worker by worker.
func (o *openLoop) run() []sample {
	start := time.Now()
	per := make([][]sample, o.workers)
	var wg sync.WaitGroup
	for w := range o.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < o.limit; i += o.workers {
				req := o.next(w)
				due := start.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
				time.Sleep(time.Until(due))
				sent := time.Now()
				scores, err := o.send(w, req)
				done := time.Now()
				s := sample{latency: done.Sub(due), lateness: sent.Sub(due), rpc: done.Sub(sent)}
				s.failed = err != nil || len(scores) != req.Examples() || !probabilities(scores)
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// probabilities reports whether every score is a finite probability.
func probabilities(scores []float32) bool {
	for _, s := range scores {
		f := float64(s)
		if math.IsNaN(f) || f < 0 || f > 1 {
			return false
		}
	}
	return true
}

// requestGens gives each worker its own query stream, drawn from the
// training distribution and seeded from the run's seed.
func requestGens(w *workload, seed int64, workers int) []*dataset.Generator {
	gens := make([]*dataset.Generator, workers)
	for i := range gens {
		gens[i] = dataset.NewGenerator(w.data(), seed+777+int64(i))
	}
	return gens
}

// shardSenders dials one connection per sender, each to its own shard's
// serving tier, and returns the send function of a serving stream.
func shardSenders(w *workload, d *deployment, senders int) (send func(int, request) ([]float32, error), closeAll func(), err error) {
	ts := make([]*cluster.TCPTransport, senders)
	closeAll = func() {
		for _, t := range ts {
			if t != nil {
				t.Close()
			}
		}
	}
	for i := range ts {
		id := i % len(d.shards)
		ts[i] = cluster.NewTCPTransport(map[int]string{id: d.shards[id].tcp.Addr()}, w.spec.EmbeddingDim)
		// Dial before the schedule starts, so no request pays connection
		// set-up.
		if _, err := ts[i].ServingStats(id); err != nil {
			closeAll()
			return nil, nil, err
		}
	}
	send = func(i int, req request) ([]float32, error) { return ts[i].Predict(i%len(d.shards), req) }
	return send, closeAll, nil
}

// trainerPredict scores every example of req with Trainer.Predict.
func trainerPredict(tr *trainer.Trainer, req request) ([]float32, error) {
	scores := make([]float32, 0, req.Examples())
	off := 0
	for _, c := range req.Counts {
		p, err := tr.Predict(req.Keys[off : off+int(c)])
		if err != nil {
			return nil, err
		}
		scores = append(scores, p)
		off += int(c)
	}
	return scores, nil
}
