package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one timing distribution in milliseconds. A failed operation
// is recorded as +Inf: it missed every latency limit.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func (s *samples) fail() { *s = append(*s, math.Inf(1)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailLevels are the percentiles a timing's tail is reported at, highest
// first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.9, 0.75, 0.5}

// tail names the highest percentile that leaves at least ten samples
// beyond it, with its value in the unit, e.g. "p99.9=4.1".
func (s samples) tail(unit string) string {
	scale := map[string]float64{"us": 1000, "s": 0.001}[unit]
	if scale == 0 {
		scale = 1
	}
	for _, q := range tailLevels {
		if float64(len(s))*(1-q) >= 10 {
			return fmt.Sprintf("p%.4g=%.4g", q*100, s.quantile(q)*scale)
		}
	}
	return "tail=n/a"
}

// metric is one reported figure. N is the sample count behind a timing
// (0 for ratios and counts); Tail is the timing's highest supported
// percentile.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Tail  string
}

// metrics collects a run's figures in report order.
type metrics struct {
	list []metric
	idx  map[string]int
}

func (m *metrics) set(name, unit string, v float64) {
	m.put(metric{Name: name, Unit: unit, Value: v})
}

// timing records a figure derived from a distribution, with its sample
// count and tail.
func (m *metrics) timing(name, unit string, v float64, s samples) {
	m.put(metric{Name: name, Unit: unit, Value: v, N: len(s), Tail: s.tail(unit)})
}

func (m *metrics) put(x metric) {
	if m.idx == nil {
		m.idx = make(map[string]int)
	}
	if i, ok := m.idx[x.Name]; ok {
		m.list[i] = x
		return
	}
	m.idx[x.Name] = len(m.list)
	m.list = append(m.list, x)
}

func (m *metrics) get(name string) (metric, bool) {
	i, ok := m.idx[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}

// ratio divides safely: an empty base reads as 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
