package main

import (
	"math"
	"time"
)

// Round-trip times are counted in buckets 1% wide on a log scale, from
// 1 µs up to about 1 s. A run's latency record then has a fixed size,
// however many requests it answers: it does not grow the heap the service
// shares with the clients, so it does not change how often the collector
// runs while the timed part is measured.
const (
	histBase    = 1.01
	histBuckets = 1400
)

// rttHist counts round-trip times by bucket.
type rttHist [histBuckets]uint32

func (h *rttHist) add(d time.Duration) {
	b := 0
	if us := float64(d.Nanoseconds()) / 1e3; us > 1 {
		b = min(histBuckets-1, int(math.Log(us)/math.Log(histBase)))
	}
	h[b]++
}

func (h *rttHist) merge(o *rttHist) {
	for b, c := range o {
		h[b] += c
	}
}

func (h *rttHist) count() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// quantile returns the q-quantile in µs, interpolated by rank inside its
// bucket; NaN for an empty histogram.
func (h *rttHist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return math.NaN()
	}
	rank := q * float64(n-1)
	cum := 0
	for b, c := range h {
		if c == 0 || float64(cum+int(c)) <= rank {
			cum += int(c)
			continue
		}
		lo := math.Pow(histBase, float64(b))
		if b == 0 {
			lo = 0
		}
		hi := math.Pow(histBase, float64(b+1))
		return lo + (rank-float64(cum)+0.5)/float64(c)*(hi-lo)
	}
	return math.Pow(histBase, histBuckets)
}

// windows splits a timed part of length span into one-second windows,
// each with its own histogram.
type windows struct {
	width time.Duration
	hists []rttHist
}

func newWindows(span time.Duration) windows {
	n := max(1, int(span/time.Second))
	return windows{width: span / time.Duration(n), hists: make([]rttHist, n)}
}

// add counts a round trip that completed at done, measured from the start
// of the timed part; one completing after the last window is not counted.
func (w windows) add(done, rtt time.Duration) {
	if i := int(done / w.width); i < len(w.hists) {
		w.hists[i].add(rtt)
	}
}

func (w windows) merge(o windows) {
	for i := range w.hists {
		w.hists[i].merge(&o.hists[i])
	}
}

// p50 returns the median over the windows of their p50 round-trip times
// in µs. A median over windows keeps a burst of lost CPU in one second
// from moving the run's figure.
func (w windows) p50() float64 {
	var p50s []float64
	for i := range w.hists {
		if h := &w.hists[i]; h.count() > 0 {
			p50s = append(p50s, h.quantile(0.5))
		}
	}
	return median(p50s)
}
