package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment records what a result was measured on.
func environment(opts options) map[string]any {
	return map[string]any{
		"cpu_model":   cpuModel(),
		"nproc":       runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"commit":      opts.commit,
		"ccsd_sha256": fileDigest(opts.ccsd),
		"seconds":     opts.seconds,
		"seed":        opts.seed,
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

// fileDigest is a short content hash of a file ("" when unreadable).
func fileDigest(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDeterminism compares counts with the record an earlier run of the
// same binaries, workload, seed and mode left in the state directory,
// and writes the record when there is none. It returns the names of the
// counts that differ.
func checkDeterminism(opts options, counts map[string]float64) ([]string, error) {
	self, _ := os.Executable()
	mode := "e2e"
	if opts.trace {
		mode = "traced"
	}
	path := filepath.Join(opts.state, fmt.Sprintf("counts-%s-%d-%s-%s-%s.json",
		opts.workload, opts.seed, mode, fileDigest(opts.ccsd), fileDigest(self)))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err := json.Marshal(counts)
		if err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var old map[string]float64
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, fmt.Errorf("determinism record %s: %w", path, err)
	}
	var differ []string
	for k, v := range counts {
		if ov, ok := old[k]; !ok || ov != v {
			differ = append(differ, k)
		}
	}
	for k := range old {
		if _, ok := counts[k]; !ok {
			differ = append(differ, k)
		}
	}
	sort.Strings(differ)
	return differ, nil
}
