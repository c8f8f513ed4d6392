package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"

	"fedsched/internal/store"
	"fedsched/internal/task"
)

// target is a fedschedd HTTP endpoint and the one client every request of a
// run goes through. The transport holds at most one connection per sender.
type target struct {
	base   string
	client *http.Client
}

func newTarget(base string) *target {
	tr := &http.Transport{MaxIdleConnsPerHost: senders, MaxConnsPerHost: senders, DisableCompression: true}
	return &target{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// send issues one request and returns the status and, when keep is set, the
// body. The cluster goes in the X-Cluster header; "" addresses the default
// cluster.
func (t *target) send(method, path, cluster string, body []byte, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if cluster != "" {
		req.Header.Set("X-Cluster", cluster)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// get fetches path and requires a 200.
func (t *target) get(path, cluster string) ([]byte, error) {
	status, body, err := t.send(http.MethodGet, path, cluster, nil, true)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return body, nil
}

// sender is one load-generating client: its cluster and the admit ops of
// its live tasks, in admission order.
type sender struct {
	id      int
	cluster string
	live    []op
}

// request maps an op to its HTTP request; ok is false for a remove slot that
// finds the sender without live tasks.
func (s *sender) request(o op) (method, path string, body []byte, ok bool) {
	switch o.kind {
	case opAdmit:
		return http.MethodPost, "/v1/admit", o.body, true
	case opRemove:
		if o.name == "" && len(s.live) == 0 {
			return "", "", nil, false
		}
		return http.MethodDelete, "/v1/tasks/" + s.removes(o), nil, true
	default:
		return http.MethodGet, "/v1/allocation", nil, true
	}
}

// removes is the task a remove op targets: the one it names, or else the
// sender's oldest live task.
func (s *sender) removes(o op) string {
	if o.name != "" {
		return o.name
	}
	return s.live[0].name
}

// settle updates the live set from an op's outcome. A removal answered 404
// means the task is gone; a 409 keeps it installed.
func (s *sender) settle(o op, status int) {
	switch {
	case o.kind == opAdmit && status == http.StatusOK:
		s.live = append(s.live, o)
	case o.kind == opRemove && (status == http.StatusOK || status == http.StatusNotFound):
		name := s.removes(o)
		for i, l := range s.live {
			if l.name == name {
				s.live = append(s.live[:i], s.live[i+1:]...)
				break
			}
		}
	}
}

// answered reports whether status is a verdict the API declares for the op:
// anything else (429, 5xx, 504, a transport error, an undeclared code) is a
// failed request.
func answered(kind opKind, status int) bool {
	switch kind {
	case opAdmit:
		return status == http.StatusOK || status == http.StatusConflict
	case opRemove:
		return status == http.StatusOK || status == http.StatusNotFound || status == http.StatusConflict
	default:
		return status == http.StatusOK
	}
}

// phaseStats accumulates one load phase.
type phaseStats struct {
	lat       [3][]float64 // measured latencies in ms, by opKind
	lagMs     []float64    // open loop: generator lateness per measured op
	probeMs   []float64    // sequential loop: host probe latencies
	attempted int
	failed    int
	ok200     int // mutations answered 200
	rejected  int // measured admits answered 409
	mutations int // measured mutations answered 200, 404 or 409
	exhausted bool
}

func (p *phaseStats) merge(q *phaseStats) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
	p.lagMs = append(p.lagMs, q.lagMs...)
	p.probeMs = append(p.probeMs, q.probeMs...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.ok200 += q.ok200
	p.rejected += q.rejected
	p.mutations += q.mutations
	p.exhausted = p.exhausted || q.exhausted
}

// record books one sent op. Every op counts toward the request and WAL
// accounting; only an op inside the phase's measuring window adds a latency
// sample and, for a mutation, to the throughput count.
func (p *phaseStats) record(o op, status int, lat time.Duration, measured bool) {
	p.attempted++
	if !answered(o.kind, status) {
		p.failed++
		return
	}
	if o.kind != opRead && status == http.StatusOK {
		p.ok200++
	}
	if !measured {
		return
	}
	p.lat[o.kind] = append(p.lat[o.kind], float64(lat)/float64(time.Millisecond))
	if o.kind == opRead {
		return
	}
	p.mutations++
	if o.kind == opAdmit && status != http.StatusOK {
		p.rejected++
	}
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than a runtime
// timer, whose millisecond granularity would add up to 1 ms of generator lag
// to every open-loop op.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// openLoop sends each sender's ops on a fixed schedule: over both senders,
// one op every 1/rate seconds. Ops due in the first warm seconds warm the
// daemon and connections up and are not measured. Latency runs from the op's
// due time, so a stall also charges the ops it delays; generator lag is how
// late an op was sent beyond both its due time and its sender's previous
// completion.
func openLoop(t *target, ss []*sender, ops [][]op, rate float64, warm time.Duration) *phaseStats {
	start := time.Now().Add(20 * time.Millisecond)
	from := start.Add(warm)
	per := make([]phaseStats, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(s *sender, ops []op, st *phaseStats) {
			defer wg.Done()
			prev := start
			for j, o := range ops {
				due := start.Add(time.Duration(float64(j*len(ss)+s.id) / rate * float64(time.Second)))
				sleepUntil(due)
				method, path, body, ok := s.request(o)
				if !ok {
					continue
				}
				sent := time.Now()
				ready := due
				if prev.After(ready) {
					ready = prev
				}
				status, _, err := t.send(method, path, s.cluster, body, false)
				done := time.Now()
				prev = done
				if err != nil {
					status = 0
				}
				measured := !due.Before(from)
				if measured {
					st.lagMs = append(st.lagMs, float64(sent.Sub(ready))/float64(time.Millisecond))
				}
				st.record(o, status, done.Sub(due), measured)
				s.settle(o, status)
			}
		}(s, ops[i], &per[i])
	}
	wg.Wait()
	var out phaseStats
	for i := range per {
		out.merge(&per[i])
	}
	return &out
}

// The crash state. Recovery replays the snapshot and WAL in time that grows
// with the tasks they hold, and the generated tasks vary about tenfold in
// encoded size, so recover_s compares runs only when every run crashes the
// daemon on the same state. Before the crash each shard therefore drops its
// senders' tasks, installs crashLive tasks of the workload's churn drawn
// from crashSeed, and logs a small pad task admitted and removed in turn,
// through its next snapshot to crashTail records past it. The state the
// daemon recovers is then the seed batch (the only part --seed changes), the
// crash tasks in a snapshot, and crashTail pad records.
const (
	crashLive = 6
	crashTail = 64
	crashSeed = -1
)

// do sends o for s and settles its outcome on s's live set. A remove slot
// that finds s without live tasks returns status 0.
func (s *sender) do(t *target, o op) (int, error) {
	method, path, body, ok := s.request(o)
	if !ok {
		return 0, nil
	}
	status, _, err := t.send(method, path, s.cluster, body, false)
	if err != nil {
		return 0, err
	}
	s.settle(o, status)
	return status, nil
}

// clear removes every task s holds and returns how many removals were
// answered 200.
func (s *sender) clear(t *target) (int, error) {
	ok := 0
	for len(s.live) > 0 {
		name := s.live[0].name
		status, err := s.do(t, op{kind: opRemove})
		if err != nil {
			return ok, err
		}
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusNotFound:
		default:
			return ok, fmt.Errorf("removing %s: status %d", name, status)
		}
	}
	return ok, nil
}

func admitOp(tk *task.DAGTask) (op, error) {
	body, err := json.Marshal(tk)
	return op{kind: opAdmit, name: tk.Name, body: body}, err
}

// crashState brings every shard to the crash state and returns how many
// mutations were answered 200. vars are the shards' counters before it; the
// daemon must have started on an empty WAL directory, so that it snapshots at
// every multiple of store.DefaultSnapshotEvery.
func crashState(t *target, w *workload, ss []*sender, vars []shardVars) (int, error) {
	const every = store.DefaultSnapshotEvery
	total := 0
	for shard, v := range vars {
		ok := 0
		var mine []*sender
		for _, s := range ss {
			if s.id%w.shards == shard {
				mine = append(mine, s)
			}
		}
		for _, s := range mine {
			n, err := s.clear(t)
			ok += n
			if err != nil {
				return total + ok, err
			}
		}
		s := mine[0]
		r := rand.New(rand.NewSource(crashSeed))
		for i := 0; i < crashLive; i++ {
			tk := genTask(r, w.churn)
			tk.Name = fmt.Sprintf("crash%d-%d", shard, i)
			o, err := admitOp(tk)
			if err != nil {
				return total + ok, err
			}
			status, err := s.do(t, o)
			if err != nil {
				return total + ok, err
			}
			if status == http.StatusOK {
				ok++
			} else if status != http.StatusConflict {
				return total + ok, fmt.Errorf("admitting %s: status %d", tk.Name, status)
			}
		}
		pad := genTask(r, lowChurn)
		pad.Name = fmt.Sprintf("pad%d", shard)
		padAdmit, err := admitOp(pad)
		if err != nil {
			return total + ok, err
		}
		padRemove := op{kind: opRemove, name: pad.Name}
		seq := int(v.WALSeq) + ok
		for need := (every-seq%every)%every + crashTail; need > 0; need-- {
			o := padAdmit
			if len(s.live) > 0 && s.live[len(s.live)-1].name == pad.Name {
				o = padRemove
			}
			status, err := s.do(t, o)
			if err != nil {
				return total + ok, err
			}
			if status != http.StatusOK {
				return total + ok, fmt.Errorf("pad %s of %s: status %d", o.kind, pad.Name, status)
			}
			ok++
		}
		total += ok
	}
	return total, nil
}

// sendNow sends o for s at once and books it, timed from its send. It is
// measured when answered inside [from, deadline].
func (p *phaseStats) sendNow(t *target, s *sender, o op, from, deadline time.Time) {
	method, path, body, ok := s.request(o)
	if !ok {
		return
	}
	sent := time.Now()
	status, _, err := t.send(method, path, s.cluster, body, false)
	done := time.Now()
	if err != nil {
		status = 0
	}
	p.record(o, status, done.Sub(sent), !done.Before(from) && !done.After(deadline))
	s.settle(o, status)
}

// seqLoop sends the senders' ops one at a time for warm + dur, taking the
// senders in turn, and one host probe after each measured op. With one
// request in flight, each latency is the daemon's answer time with no queue
// in front of it, so a slow moment of the host slows the ops it hits and no
// others. This is the loop the gated latencies come from, and the traced
// replay runs its first ops in the same order.
func seqLoop(t *target, ss []*sender, ops [][]op, warm, dur time.Duration, pr *probe) (*phaseStats, error) {
	from := time.Now().Add(warm)
	deadline := from.Add(dur)
	var st phaseStats
	for i := 0; time.Now().Before(deadline); i++ {
		s := ss[i%len(ss)]
		j := i / len(ss)
		if j == len(ops[s.id]) {
			st.exhausted = true
			break
		}
		st.sendNow(t, s, ops[s.id][j], from, deadline)
		if now := time.Now(); now.After(from) && now.Before(deadline) {
			if err := pr.burst(1, &st.probeMs); err != nil {
				return nil, err
			}
		}
	}
	return &st, nil
}

// closedLoop runs each sender back to back for warm + dur. Only ops answered
// after the warm-up and before the deadline are measured.
func closedLoop(t *target, ss []*sender, ops [][]op, warm, dur time.Duration) *phaseStats {
	from := time.Now().Add(warm)
	deadline := from.Add(dur)
	per := make([]phaseStats, len(ss))
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(s *sender, ops []op, st *phaseStats) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				if j == len(ops) {
					st.exhausted = true
					return
				}
				st.sendNow(t, s, ops[j], from, deadline)
			}
		}(s, ops[i], &per[i])
	}
	wg.Wait()
	var out phaseStats
	for i := range per {
		out.merge(&per[i])
	}
	return &out
}
