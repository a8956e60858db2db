package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// latencyWindows is how many consecutive slices a pass's latencies are
// cut into for windowedQuantile.
const latencyWindows = 3

// windowedQuantile is the median over latencyWindows consecutive slices of
// xs (in arrival order) of each slice's q-quantile: one disturbed slice —
// a collector cycle or a host stall — moves it far less than it moves the
// pooled quantile. xs is left unchanged.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < latencyWindows {
		return quantile(append([]float64(nil), xs...), q)
	}
	k := len(xs) / latencyWindows
	per := make([]float64, latencyWindows)
	for i := range per {
		per[i] = quantile(append([]float64(nil), xs[i*k:(i+1)*k]...), q)
	}
	return quantile(per, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runtimeSnap is a reading of the Go runtime's cumulative counters.
type runtimeSnap struct {
	allocObjects, allocBytes uint64
	gcCPU, totalCPU          float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocObjects = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[3].Value.Float64()
	}
	return r
}

// processCPU is the CPU time the process has used so far, user and system,
// on every thread.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runtimeCost is the runtime's work over one pass, per operation.
type runtimeCost struct {
	allocsPerOp, allocMBPerOp, gcCPUFraction float64
}

func costSince(before runtimeSnap, ops int64) runtimeCost {
	after := readRuntime()
	n := float64(ops)
	if n < 1 {
		n = 1
	}
	return runtimeCost{
		allocsPerOp:   float64(after.allocObjects-before.allocObjects) / n,
		allocMBPerOp:  float64(after.allocBytes-before.allocBytes) / n / 1e6,
		gcCPUFraction: ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
	}
}

// statusMB reads one memory field (e.g. "VmRSS") of /proc/self/status in
// MB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read %s: %w", field, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field+":") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("read %s: %w", field, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssWatch tracks the peak resident set of one measured pass. The kernel's
// own high-water mark (VmHWM) would include the set-ups before the pass,
// so the watch starts from a collected heap and samples VmRSS instead.
type rssWatch struct {
	stop chan struct{}
	done chan struct{}
	peak float64
	err  error
}

// watchRSS collects garbage, returns freed memory to the OS, and starts
// sampling VmRSS every 10 ms until the returned watch is ended.
func watchRSS() *rssWatch {
	runtime.GC()
	debug.FreeOSMemory()
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	go func() {
		defer close(w.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.sample()
			}
		}
	}()
	return w
}

func (w *rssWatch) sample() {
	mb, err := statusMB("VmRSS")
	if err != nil {
		w.err = err
		return
	}
	if mb > w.peak {
		w.peak = mb
	}
}

// end stops sampling and returns the peak in MB.
func (w *rssWatch) end() (float64, error) {
	close(w.stop)
	<-w.done
	w.sample()
	return w.peak, w.err
}

// setupReps is how many times each workload performs its set-up; setup_s
// reports the median, the last set-up is the one measured.
const setupReps = 3

// medianSetup runs setup setupReps times, tearing down all but the last,
// and returns the last set-up's value with the median duration.
func medianSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 && teardown != nil {
			teardown(v)
		}
		last = v
	}
	return last, quantile(times, 0.5), nil
}
