package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles ./cmd/fedschedd of the repository at root into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "fedschedd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building fedschedd: %w", err)
	}
	return bin, nil
}

// daemon is one fedschedd process on a loopback port, durable under walDir.
type daemon struct {
	bin    string
	args   []string
	walDir string
	dir    string // holds the address file and the process log
	cmd    *exec.Cmd
	exited chan error
	t      *target
}

// start execs the daemon and returns once GET /v1/healthz answers 200,
// reporting the time from exec to that answer.
func (d *daemon) start() (time.Duration, error) {
	addrFile := filepath.Join(d.dir, "addr")
	os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(d.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:0", "-addrfile", addrFile, "-wal-dir", d.walDir}, d.args...)
	t0 := time.Now()
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("starting fedschedd: %w", err)
	}
	d.cmd, d.exited = cmd, make(chan error, 1)
	go func() { d.exited <- cmd.Wait() }()

	deadline := t0.Add(60 * time.Second)
	for {
		select {
		case err := <-d.exited:
			d.cmd = nil
			return 0, fmt.Errorf("fedschedd exited during start-up (%v): %s", err, d.log())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return 0, fmt.Errorf("fedschedd not healthy after 60s: %s", d.log())
		}
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			if d.t == nil || d.t.base != "http://"+string(addr) {
				if d.t != nil {
					d.t.close()
				}
				d.t = newTarget("http://" + string(addr))
			}
			if status, _, err := d.t.send(http.MethodGet, "/v1/healthz", "", nil, false); err == nil && status == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		sleepUntil(time.Now().Add(250 * time.Microsecond))
	}
}

// kill sends SIGKILL and waits for the process to be gone.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
	if d.t != nil {
		d.t.close()
	}
}

func (d *daemon) log() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	return strings.TrimSpace(string(b))
}

// shardVars is the part of a shard's /debug/vars map the benchmark reads.
type shardVars struct {
	WALAppends  int64 `json:"wal_appends_total"`
	WALSeq      int64 `json:"wal_seq"`
	AdmitP50Ns  int64 `json:"admit_latency_p50_ns"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// fetchVars reads every shard's counters. A multi-shard daemon nests each
// shard's map under "shard_<i>".
func fetchVars(t *target, shards int) ([]shardVars, error) {
	body, err := t.get("/debug/vars", "")
	if err != nil {
		return nil, err
	}
	out := make([]shardVars, shards)
	if shards == 1 {
		return out, json.Unmarshal(body, &out[0])
	}
	var nested map[string]json.RawMessage
	if err := json.Unmarshal(body, &nested); err != nil {
		return nil, err
	}
	for i := range out {
		raw, ok := nested[fmt.Sprintf("shard_%d", i)]
		if !ok {
			return nil, fmt.Errorf("/debug/vars has no shard_%d", i)
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
