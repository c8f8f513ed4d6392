package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// The host probe. The benchmark runs on a small virtual machine that shares
// its host with other tenants, and the machine's speed drifts by tens of
// percent over seconds to minutes: CPU time, loopback wake-ups and fsync
// slow down and speed up together. In the runs that defined the benchmark
// that drift, not the daemon, made most of the run-to-run spread of raw
// latencies.
//
// The probe is a fixed stand-in for an admission built from the standard
// library alone, so no change to the repository changes it: an HTTP POST on
// loopback whose handler decodes, re-encodes and hashes a JSON document,
// hands it to a writer goroutine that appends it to a file and fsyncs, and
// answers with a verdict-sized body. The benchmark times probes in the same
// phase as each gated time, and scales the time by how much slower or
// faster the probe ran there than probeNominalMs.
type probe struct {
	srv    *http.Server
	served chan error
	t      *target
	log    *os.File
	writes chan probeWrite
	wrote  chan struct{}
	doc    []byte
	reply  []byte
	pad    []byte
}

// probeNominalMs is a round figure within the range of the probe's medians on
// the host the benchmark was defined on (0.77–1.50 ms, bench/results/). A gated
// time is reported as measured × probeNominalMs ÷ the probe's median next to
// it, which is the time the host would have given at that probe median.
const probeNominalMs = 1.0

// probeBurst is how many probes bracket each timed boot and restart.
const probeBurst = 16

// probeTruncateEvery bounds the probe's log the way a snapshot bounds the
// daemon's WAL: every so many appends it starts over.
const probeTruncateEvery = 256

type probeWrite struct {
	body []byte
	done chan error
}

// startProbe serves the probe on a loopback port, logging to a file in dir.
func startProbe(dir string) (*probe, error) {
	// The document is about the size of a generated low-density task.
	entries := make(map[string][]any, 50)
	for i := 0; i < 50; i++ {
		entries[fmt.Sprintf("vertex-%02d", i)] = []any{i, "wcet", float64(i) / 3, []int{i, i + 1, i + 2}}
	}
	doc, err := json.Marshal(map[string]any{"name": "probe", "vertices": entries})
	if err != nil {
		return nil, err
	}
	log, err := os.OpenFile(filepath.Join(dir, "probe.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Close()
		return nil, err
	}
	p := &probe{
		log: log, served: make(chan error, 1),
		writes: make(chan probeWrite), wrote: make(chan struct{}),
		doc:   doc,
		reply: bytes.Repeat([]byte{'v'}, 11<<10),
		pad:   bytes.Repeat([]byte{'p'}, 64<<10),
	}
	go p.writer()
	p.srv = &http.Server{Handler: http.HandlerFunc(p.serve)}
	go func() { p.served <- p.srv.Serve(ln) }()
	p.t = newTarget("http://" + ln.Addr().String())
	return p, nil
}

// writer appends each document to the log and fsyncs it, one at a time.
func (p *probe) writer() {
	defer close(p.wrote)
	n := 0
	for w := range p.writes {
		_, err := p.log.Write(w.body)
		if err == nil {
			err = p.log.Sync()
		}
		if n++; n%probeTruncateEvery == 0 && err == nil {
			err = p.log.Truncate(0)
		}
		w.done <- err
	}
}

func (p *probe) serve(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	enc, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(enc)
	for i := 0; i < 4; i++ {
		h := sha256.New()
		h.Write(sum[:])
		h.Write(p.pad)
		h.Sum(sum[:0])
	}
	done := make(chan error, 1)
	p.writes <- probeWrite{body: append(enc, sum[:]...), done: done}
	if err := <-done; err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(p.reply)
}

// ping sends one probe and returns its latency in ms.
func (p *probe) ping() (float64, error) {
	t0 := time.Now()
	status, _, err := p.t.send(http.MethodPost, "/", "", p.doc, false)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("probe answered %d", status)
	}
	return ms, err
}

// burst sends n probes and appends their latencies to into.
func (p *probe) burst(n int, into *[]float64) error {
	for i := 0; i < n; i++ {
		ms, err := p.ping()
		if err != nil {
			return err
		}
		*into = append(*into, ms)
	}
	return nil
}

// close stops the server and the writer and waits for both.
func (p *probe) close() error {
	p.t.close()
	err := p.srv.Close()
	if serr := <-p.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	close(p.writes)
	<-p.wrote
	return errors.Join(err, p.log.Close())
}

// hostScale is the factor that brings a time measured next to probes of
// latencies ms to the nominal host: probeNominalMs ÷ their median.
func hostScale(ms []float64) float64 {
	med := median(ms)
	if med <= 0 {
		return 1
	}
	return probeNominalMs / med
}
