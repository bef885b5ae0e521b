package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// fleet is a router and two workers, each a cmd/serve process, the
// workers warm-starting from the benchmark's snapshot directory.
type fleet struct {
	workers []*child
	router  *child
	base    string   // router URL
	wbases  []string // worker URLs
}

var servingOn = regexp.MustCompile(`serving on ([0-9.]+:[0-9]+) `)

// workerAddrs are the workers' fixed listen addresses. The router's
// hash ring is keyed by worker URL, so fixed URLs give every run the
// same assignment of suites to workers, and with it the same split of
// the load: suite 1 (two thirds of requests) on the first worker,
// suites 2 and 3 on the second.
var workerAddrs = []string{"127.0.0.1:47304", "127.0.0.1:47305"}

// startFleet launches the workers, then the router over them, and
// returns once every process answers /healthz.
func startFleet(ctx context.Context, e *env, tag string) (*fleet, error) {
	f := &fleet{}
	serve := filepath.Join(e.bin, "serve")
	for i, addr := range workerAddrs {
		c, err := startChild(serve, []string{"-mode", "worker", "-addr", addr, "-preset", "quick",
			"-cache", fmt.Sprint(workerCache), "-snapshot-dir", filepath.Join(e.cache, "snap")},
			filepath.Join(e.work, fmt.Sprintf("%s-worker%d.log", tag, i)), nil)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, c)
	}
	for _, c := range f.workers {
		addr, err := listenAddr(ctx, c)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.wbases = append(f.wbases, "http://"+addr)
	}
	c, err := startChild(serve, []string{"-mode", "router", "-addr", "127.0.0.1:0",
		"-backends", strings.Join(f.wbases, ",")},
		filepath.Join(e.work, tag+"-router.log"), nil)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = c
	addr, err := listenAddr(ctx, c)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.base = "http://" + addr
	for _, b := range append([]string{f.base}, f.wbases...) {
		if err := waitHealthy(ctx, b); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// listenAddr waits for a serve process to log the address it bound.
func listenAddr(ctx context.Context, c *child) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(c.errPath)
		if err != nil {
			return "", err
		}
		if m := servingOn.FindSubmatch(b); m != nil {
			return string(m[1]), nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("serve did not start listening: %s", tailFile(c.errPath, 400))
}

func waitHealthy(ctx context.Context, base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if code, _, err := get(ctx, http.DefaultClient, base+"/healthz"); err == nil && code == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", base)
}

// stop drains the router, then the workers, and waits for all three.
func (f *fleet) stop() error {
	var errs []string
	for _, c := range append([]*child{f.router}, f.workers...) {
		if c == nil {
			continue
		}
		if err := c.stop(10 * time.Second); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("fleet stop: %s", strings.Join(errs, "; "))
	}
	return nil
}

// procs lists the fleet's processes, router first.
func (f *fleet) procs() []*child { return append([]*child{f.router}, f.workers...) }

// get fetches a URL and returns its status and body.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
