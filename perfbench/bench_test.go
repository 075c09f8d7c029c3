package main

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hps/internal/cluster"
	"hps/internal/serving"
)

// The TCP server picks its code path by probing the handler for optional
// interfaces. The traced wrapper must offer exactly the methods of the
// handler it wraps, or a traced run would measure a different program.
func TestTracedHandlerKeepsInterfaces(t *testing.T) {
	plain := reflect.TypeOf(&serving.Handler{})
	traced := reflect.TypeOf(&tracedHandler{})
	if plain.NumMethod() != traced.NumMethod() {
		t.Fatalf("wrapper has %d methods, handler %d", traced.NumMethod(), plain.NumMethod())
	}
	for i := range plain.NumMethod() {
		m := plain.Method(i)
		tm, ok := traced.MethodByName(m.Name)
		if !ok {
			t.Errorf("wrapper lacks %s", m.Name)
			continue
		}
		// Drop the receiver before comparing signatures.
		if got, want := funcSig(tm.Type), funcSig(m.Type); got != want {
			t.Errorf("%s: wrapper has %s, handler %s", m.Name, got, want)
		}
	}

	ifaces := map[string]reflect.Type{
		"PullHandler":             reflect.TypeFor[cluster.PullHandler](),
		"PushHandler":             reflect.TypeFor[cluster.PushHandler](),
		"LookupHandler":           reflect.TypeFor[cluster.LookupHandler](),
		"BlockPullHandler":        reflect.TypeFor[cluster.BlockPullHandler](),
		"BlockPushHandler":        reflect.TypeFor[cluster.BlockPushHandler](),
		"BlockPullWireHandler":    reflect.TypeFor[cluster.BlockPullWireHandler](),
		"StampedBlockPushHandler": reflect.TypeFor[cluster.StampedBlockPushHandler](),
		"ReplicaPushHandler":      reflect.TypeFor[cluster.ReplicaPushHandler](),
		"TransferHandler":         reflect.TypeFor[cluster.TransferHandler](),
		"MembershipHandler":       reflect.TypeFor[cluster.MembershipHandler](),
		"EvictHandler":            reflect.TypeFor[cluster.EvictHandler](),
		"StatsHandler":            reflect.TypeFor[cluster.StatsHandler](),
		"PredictHandler":          reflect.TypeFor[cluster.PredictHandler](),
		"ServeConfigHandler":      reflect.TypeFor[cluster.ServeConfigHandler](),
		"ServingStatsHandler":     reflect.TypeFor[cluster.ServingStatsHandler](),
	}
	for name, it := range ifaces {
		if plain.Implements(it) != traced.Implements(it) {
			t.Errorf("cluster.%s: handler implements it %v, wrapper %v", name, plain.Implements(it), traced.Implements(it))
		}
	}
}

func funcSig(f reflect.Type) string {
	in := make([]reflect.Type, 0, f.NumIn())
	for i := 1; i < f.NumIn(); i++ {
		in = append(in, f.In(i))
	}
	out := make([]reflect.Type, 0, f.NumOut())
	for i := range f.NumOut() {
		out = append(out, f.Out(i))
	}
	return reflect.FuncOf(in, out, f.IsVariadic()).String()
}

// A slow reply must not slow the schedule down: requests behind it go out
// late, and their latency counts from when they were due.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	loop := &openLoop{
		rate: 1000, limit: 20, workers: 2,
		next: func(int) request { return request{Counts: []uint32{0}} },
		send: func(_ int, req request) ([]float32, error) {
			if calls.Add(1) == 1 {
				time.Sleep(30 * time.Millisecond)
			}
			return []float32{0.5}, nil
		},
	}
	samples := loop.run()
	if len(samples) != 20 {
		t.Fatalf("sent %d requests, want 20", len(samples))
	}
	late := 0
	for _, s := range samples {
		if s.failed {
			t.Errorf("request failed: %+v", s)
		}
		if s.latency < s.lateness || s.latency < s.rpc {
			t.Errorf("latency %v shorter than lateness %v or rpc %v", s.latency, s.lateness, s.rpc)
		}
		if s.lateness > 10*time.Millisecond {
			late++
		}
	}
	if late == 0 {
		t.Error("no request queued behind the slow reply")
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	var calls atomic.Int64
	loop := &openLoop{
		rate: 2000, limit: 6, workers: 2,
		next: func(int) request { return request{Counts: []uint32{0, 0}} },
		send: func(w int, req request) ([]float32, error) {
			switch calls.Add(1) {
			case 2:
				return nil, errors.New("overloaded")
			case 3:
				return []float32{0.5, 2}, nil // not a probability
			case 4:
				return []float32{0.5}, nil // one score short
			}
			return []float32{0.1, 0.9}, nil
		},
	}
	samples := loop.run()
	failed := 0
	for _, s := range samples {
		if s.failed {
			failed++
		}
	}
	if len(samples) != 6 || failed != 3 {
		t.Errorf("%d requests, %d failed; want 6 and 3", len(samples), failed)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	for n, want := range map[int]int{1000: 99, 999: 98, 500: 98, 100: 90, 99: 0} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
