package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hps/internal/cluster"
	"hps/internal/keys"
	"hps/internal/ps"
	"hps/internal/serving"
)

// span is one timed call at a layer boundary. Parent is the benchmark phase
// (set-up, Run, Evaluate, ...) the call happened in.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Shard  int    `json:"shard"`
	Items  int    `json:"items,omitempty"`
	// StartUS and DurUS are microseconds since the recorder started.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`

	dur time.Duration
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: shard handlers record from their connection goroutines.
type recorder struct {
	base  time.Time
	next  atomic.Int64
	phase atomic.Int64 // id of the phase span new spans belong to
	round atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID reserves a span id, so a phase can parent spans recorded before it
// ends.
func (r *recorder) newID() int64 { return r.next.Add(1) }

// record adds a finished span and returns its id. A zero id reserves one.
func (r *recorder) record(id, parent int64, name string, shard, items int, start time.Time) int64 {
	end := time.Now()
	if id == 0 {
		id = r.newID()
	}
	s := span{
		ID: id, Parent: parent, Name: name, Round: int(r.round.Load()), Shard: shard, Items: items,
		StartUS: float64(start.Sub(r.base).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
		dur:     end.Sub(start),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return id
}

// call records a span under the current phase.
func (r *recorder) call(name string, shard, items int, start time.Time) {
	r.record(0, r.phase.Load(), name, shard, items, start)
}

// sum returns the count and total duration of the spans named name in the
// given rounds.
func (r *recorder) sum(name string, rounds map[int]bool) (n int, total time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Name == name && rounds[s.Round] {
			n++
			total += s.dur
		}
	}
	return n, total
}

// write stores every span as JSON under dir.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	r.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// tracedHandler is the shard handler of a traced run. It embeds the
// handler `hps serve` serves and overrides only the calls it times, so the
// TCP server finds exactly the same optional interfaces on it and takes the
// same code paths as in an untraced run.
type tracedHandler struct {
	*serving.Handler
	rec   *recorder
	shard int
}

// HandlePullBlockWire times the training pull (the raw-frame pull path).
func (h *tracedHandler) HandlePullBlockWire(ks []keys.Key, dst []byte, prec ps.Precision) ([]byte, error) {
	start := time.Now()
	out, err := h.Handler.HandlePullBlockWire(ks, dst, prec)
	h.rec.call("memps.pull", h.shard, len(ks), start)
	return out, err
}

// HandlePushBlockStamped times the training push.
func (h *tracedHandler) HandlePushBlockStamped(client, seq uint64, blk *ps.ValueBlock) error {
	start := time.Now()
	n := blk.Len()
	err := h.Handler.HandlePushBlockStamped(client, seq, blk)
	h.rec.call("memps.push", h.shard, n, start)
	return err
}

// HandleLookup times evaluation lookups and serving peer fetches.
func (h *tracedHandler) HandleLookup(ks []keys.Key) (cluster.PullResult, error) {
	start := time.Now()
	res, err := h.Handler.HandleLookup(ks)
	h.rec.call("memps.lookup", h.shard, len(ks), start)
	return res, err
}

// HandlePredict times a serving request inside the shard.
func (h *tracedHandler) HandlePredict(req cluster.PredictRequest) ([]float32, error) {
	start := time.Now()
	scores, err := h.Handler.HandlePredict(req)
	h.rec.call("serving.predict", h.shard, req.Examples(), start)
	return scores, err
}
