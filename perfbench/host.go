package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fingerprint identifies the host and the source a result was measured on,
// so a comparison across machines or trees shows as one.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	// GitRevision is the checkout's commit when it is a git work tree;
	// SourceSHA256 hashes every Go source and go.mod of the program, so
	// two checkouts without git metadata still compare.
	GitRevision  string `json:"git_revision"`
	SourceSHA256 string `json:"source_sha256"`
	Seed         uint64 `json:"seed"`
}

func hostFingerprint(root string, seed uint64) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return fingerprint{
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOGC:         gogc,
		GoVersion:    runtime.Version(),
		GitRevision:  gitRevision(root),
		SourceSHA256: sourceDigest(root),
		Seed:         seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision returns the checkout's commit. Only a work tree rooted at
// root counts: git would otherwise report an enclosing repository's HEAD.
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none (not a git work tree)"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "none (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every .go file under root, skipping the
// benchmark's own directory and build outputs, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || p == filepath.Join(root, "go.mod")) {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// statusMB reads a kB field of /proc/self/status (VmRSS, VmHWM) in MiB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rssSampler samples the resident set on a ticker so that the peak of
// each repetition or round can be read separately; a run reports the
// median of those peaks, which one unlucky GC cycle does not move the way
// it moves the whole-process high-water mark.
type rssSampler struct {
	mu    sync.Mutex
	peak  float64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{peak: statusMB("VmRSS"), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := statusMB("VmRSS")
	s.mu.Lock()
	s.peak = max(s.peak, v)
	s.mu.Unlock()
}

// mark closes the current interval: its peak is kept and a new interval
// starts from the current resident set.
func (s *rssSampler) mark() {
	if s == nil {
		return
	}
	s.sample()
	s.mu.Lock()
	s.peaks = append(s.peaks, s.peak)
	s.peak = 0
	s.mu.Unlock()
	s.sample()
}

// close stops the sampler and returns the per-interval peaks.
func (s *rssSampler) close() []float64 {
	close(s.stop)
	<-s.done
	return s.peaks
}

// goStats is a reading of the Go runtime's counters.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{allocBytes: m.TotalAlloc, gcCycles: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

func (g goStats) add(d goStats) goStats {
	return goStats{
		allocBytes: g.allocBytes + d.allocBytes,
		gcCycles:   g.gcCycles + d.gcCycles,
		pauseNs:    g.pauseNs + d.pauseNs,
	}
}

func (g goStats) sub(prev goStats) goStats {
	return goStats{
		allocBytes: g.allocBytes - prev.allocBytes,
		gcCycles:   g.gcCycles - prev.gcCycles,
		pauseNs:    g.pauseNs - prev.pauseNs,
	}
}

// heapAllocBytes reads cumulative heap allocation from runtime/metrics;
// unlike ReadMemStats it does not stop the world, so it can bracket calls.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
