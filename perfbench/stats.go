package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hps/internal/metrics"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailPercentile is the highest of 99, 98, ..., 90 that has at least ten
// samples beyond it among n samples, or 0 when even p90 has not.
func tailPercentile(n int) int {
	for p := 99; p >= 90; p-- {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durationsMS converts to milliseconds and sorts.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	slices.Sort(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the machine's total and stolen CPU time so far, in clock
// ticks, from the first line of /proc/stat. Steal is time the hypervisor
// gave this machine's CPUs to another guest.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// rssSampler records the largest resident set size the process reaches
// while it runs. The kernel's own high-water mark covers the whole process
// lifetime and cannot be reset without writing to /proc, so the sampler
// polls /proc/self/statm instead.
type rssSampler struct {
	stop chan struct{}
	done chan int64
}

const rssInterval = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan int64, 1)}
	go func() {
		peak := rssBytes()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.done <- max(peak, rssBytes())
				return
			case <-t.C:
				peak = max(peak, rssBytes())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	return float64(<-s.done) / (1 << 20)
}

// rssBytes is the process's current resident set size (0 if unknown).
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// aucStdErr is the Hanley-McNeil standard error of an AUC measured on
// nPos positives and nNeg negatives.
func aucStdErr(auc float64, nPos, nNeg int) float64 {
	if nPos == 0 || nNeg == 0 {
		return 0
	}
	q1 := auc / (2 - auc)
	q2 := 2 * auc * auc / (1 + auc)
	v := (auc*(1-auc) + float64(nPos-1)*(q1-auc*auc) + float64(nNeg-1)*(q2-auc*auc)) / float64(nPos*nNeg)
	return math.Sqrt(max(v, 0))
}

// scoredAUC returns the AUC of scores against labels and the label counts.
func scoredAUC(scores, labels []float64) (auc float64, nPos, nNeg int) {
	for _, l := range labels {
		if l > 0.5 {
			nPos++
		} else {
			nNeg++
		}
	}
	return metrics.AUC(scores, labels), nPos, nNeg
}
