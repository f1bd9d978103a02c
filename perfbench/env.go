package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment describes where a result was measured. label joins the
// fields that make timings comparable; results whose labels differ are
// reported side by side, never compared.
func environment() (map[string]any, error) {
	lines, err := codeLines(".")
	if err != nil {
		return nil, err
	}
	cpu := cpuModel()
	nproc, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0)
	return map[string]any{
		"nproc":      nproc,
		"gomaxprocs": procs,
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"code_lines": lines,
		"label":      fmt.Sprintf("%dcpu/%dprocs/%s/%s", nproc, procs, cpu, runtime.Version()),
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// codeLines counts the lines of the program's non-test Go files under
// root: _test.go files, testdata trees, hidden directories, the build
// directory and this benchmark are not the program.
func codeLines(root string) (int, error) {
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "perfbench" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		total += bytes.Count(data, []byte{'\n'})
		return nil
	})
	return total, err
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
