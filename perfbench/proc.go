package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// treeDigest hashes every regular file of the checkout except the build
// directory, so a run that writes into committed files (cmd/figures
// writes results/ when -out is missing) is caught.
func treeDigest(root, skip string) (map[string]string, error) {
	out := map[string]string{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == skip || rel == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() {
			return nil
		}
		sum, err := fileHash(p)
		if err != nil {
			return err
		}
		out[rel] = sum
		return nil
	})
	return out, err
}

func fileHash(p string) (string, error) {
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// diffDigests lists the files added, removed or changed between two
// digests.
func diffDigests(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if b[k] != v {
			out = append(out, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// inputCacheDir returns the directory for inputs that are a pure
// function of the code (suite snapshots and reference bodies), keyed by
// a digest of this binary and the serve binary, so a rebuilt program
// never reads inputs made by an older one.
func inputCacheDir(base, bin string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{self, filepath.Join(bin, "serve")} {
		sum, err := fileHash(p)
		if err != nil {
			return "", err
		}
		h.Write([]byte(sum))
	}
	dir := filepath.Join(base, hex.EncodeToString(h.Sum(nil))[:16])
	return dir, os.MkdirAll(dir, 0o755)
}

// child is a program started by the benchmark. Its stderr always goes
// to a file: cmd/serve writes one access-log line per request, and an
// unread pipe would stall it.
type child struct {
	cmd     *exec.Cmd
	start   time.Time
	errPath string
	errFile *os.File
}

// startChild starts bin with args, stderr to errPath and stdout to
// stdout (nil discards it).
func startChild(bin string, args []string, errPath string, stdout io.Writer) (*child, error) {
	f, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = f
	cmd.Stdout = stdout
	c := &child{cmd: cmd, errPath: errPath, errFile: f}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	return c, nil
}

// wait waits for the child and closes its stderr file.
func (c *child) wait() error {
	err := c.cmd.Wait()
	c.errFile.Close()
	if err != nil {
		return fmt.Errorf("%s: %w (stderr: %s)", filepath.Base(c.cmd.Path), err, tailFile(c.errPath, 400))
	}
	return nil
}

// stop asks the child to drain with SIGTERM and waits for it; a child
// still running after grace is killed.
func (c *child) stop(grace time.Duration) error {
	if c.cmd.ProcessState != nil {
		return nil
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- c.wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = c.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s did not drain within %v", filepath.Base(c.cmd.Path), grace)
	}
}

// cpuSeconds is the user+system CPU time of a finished child.
func (c *child) cpuSeconds() float64 {
	ps := c.cmd.ProcessState
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMB is the peak resident set of a finished child. Linux counts
// the parent's resident set at the fork in it, which is negligible for
// a child started before perfbench has built anything.
func (c *child) peakRSSMB() float64 {
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// livePeakRSSMB reads the peak resident set of a running child
// (VmHWM). Unlike the rusage of a finished child, it cannot include the
// parent's resident set at the time of the fork.
func (c *child) livePeakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM for pid %d: %q", c.cmd.Process.Pid, line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", c.cmd.Process.Pid)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// liveCPUSeconds reads the user+system CPU time of a running child from
// /proc/<pid>/stat.
func (c *child) liveCPUSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for pid %d", c.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for pid %d", c.cmd.Process.Pid)
	}
	return float64(utime+stime) / clockTicks, nil
}

// tailFile returns up to n trailing bytes of a file, for error messages.
func tailFile(p string, n int64) string {
	b, err := os.ReadFile(p)
	if err != nil {
		return err.Error()
	}
	if int64(len(b)) > n {
		b = b[int64(len(b))-n:]
	}
	return strings.TrimSpace(string(b))
}
