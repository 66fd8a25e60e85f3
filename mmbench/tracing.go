package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/trace"
)

// span is one interval the traced run recorded around a call into a
// layer. job is the identifier the spans of one job share: the
// service's job id, which client spans learn through their submission
// key. cause names what triggered the span.
type span struct {
	name, lane, cause string
	job               uint32
	key               uint64 // client spans: the submission key
	start, end        time.Time
}

// recorder holds everything the traced run measures, in memory, from
// the benchmark's wrappers around the service's public seams: a
// cluster.JobLog around the journal and an engine.Transport around each
// worker session. Counters accumulate only between begin and end; the
// per-session assignment state is tracked throughout, so the window
// opens on the true state of every link.
type recorder struct {
	mu       sync.Mutex
	active   bool
	t0       time.Time
	spans    []span
	keyJob   map[uint64]uint32
	sessions []*session

	appendNS    []int64
	appendBytes int64

	exec        map[uint32]*execTimes
	sets        int64
	flushes     int64
	sendNS      int64
	blocksMoved int64 // payload blocks on worker links, both directions
	updates     int64
	computeNS   int64
}

type execTimes struct{ first, last time.Time }

// session mirrors one worker link: the assignments outstanding on it
// and the update sets each still expects, in the order the feeder
// routes sets (oldest incomplete assignment first).
type session struct {
	lane       string
	inflight   map[engine.AssignID]time.Time
	order      []pendingSets
	busySince  time.Time
	busyJob    uint32 // the job whose assignment opened the busy period
	idleSince  time.Time
	idleNS     int64
	flushSince time.Time
}

type pendingSets struct {
	job  uint32
	left int
}

func newRecorder() *recorder {
	return &recorder{keyJob: make(map[uint64]uint32), exec: make(map[uint32]*execTimes)}
}

// begin opens the measured window at t0, dropping whatever the warm-up
// left in the counters.
func (r *recorder) begin(t0 time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active, r.t0 = true, t0
	r.spans = nil
	r.appendNS, r.appendBytes = nil, 0
	r.exec = make(map[uint32]*execTimes)
	r.sets, r.flushes, r.sendNS, r.blocksMoved, r.updates, r.computeNS = 0, 0, 0, 0, 0, 0
	for _, s := range r.sessions {
		s.idleNS = 0
		if len(s.inflight) == 0 {
			s.idleSince = t0
		} else {
			s.busySince = t0
		}
	}
}

// end closes the window at tEnd.
func (r *recorder) end(tEnd time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.sessions {
		if len(s.inflight) == 0 {
			s.idleNS += tEnd.Sub(s.idleSince).Nanoseconds()
		} else {
			r.addSpan(span{name: "engine.busy", lane: s.lane, cause: "assign", job: s.busyJob, start: s.busySince, end: tEnd})
		}
	}
	r.active = false
}

func (r *recorder) addSpan(s span) {
	if r.active {
		r.spans = append(r.spans, s)
	}
}

// Journal record layout read by the timed log: an event-type byte and
// the little-endian u32 job id; an accepted record continues with the
// u64 submission key.
const (
	recAccepted = 1
	recChunk    = 2
	recDone     = 3
)

var recNames = map[byte]string{recAccepted: "accepted", recChunk: "chunk", recDone: "done"}

// timedLog times every Append into the journal. Append runs under the
// scheduler lock, so the time it takes is time the lock is held.
type timedLog struct {
	cluster.JobLog
	rec *recorder
}

func (l timedLog) Append(b []byte) error {
	start := time.Now()
	err := l.JobLog.Append(b)
	l.rec.appended(b, start, time.Now())
	return err
}

func (r *recorder) appended(b []byte, start, end time.Time) {
	var job uint32
	cause := "record"
	if len(b) >= 5 {
		job = binary.LittleEndian.Uint32(b[1:5])
		if n, ok := recNames[b[0]]; ok {
			cause = n
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(b) >= 13 && b[0] == recAccepted {
		r.keyJob[binary.LittleEndian.Uint64(b[5:13])] = job
	}
	if !r.active {
		return
	}
	r.appendNS = append(r.appendNS, end.Sub(start).Nanoseconds())
	r.appendBytes += int64(len(b))
	r.addSpan(span{name: "store.append", lane: "store", cause: cause, job: job, start: start, end: end})
}

// clientJob records one client round trip.
func (r *recorder) clientJob(s jobSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addSpan(span{name: "client.job", lane: "client", cause: "submit", key: s.key, start: s.start, end: s.end})
}

// wrap is the ClusterServerConfig.WrapTransport of the traced run.
func (r *recorder) wrap(name string, tr engine.Transport) engine.Transport {
	lane := "P" + strings.TrimPrefix(name, "w")
	s := &session{lane: lane, inflight: make(map[engine.AssignID]time.Time), idleSince: time.Now()}
	r.mu.Lock()
	r.sessions = append(r.sessions, s)
	r.mu.Unlock()
	return &tracedLink{inner: tr, rec: r, s: s}
}

// tracedLink records the engine messages of one worker session. Send
// transfers ownership of the message and its buffers, so every field
// the recorder needs is read before delegating; nothing of a message is
// kept, only counts and times.
type tracedLink struct {
	inner engine.Transport
	rec   *recorder
	s     *session
}

// sendNote is what Send reads from a message before handing it on.
type sendNote struct {
	kind   string
	job    uint32
	blocks int
}

func (l *tracedLink) Send(m engine.Msg) error {
	start := time.Now()
	n := l.rec.noteSend(l.s, m, start)
	err := l.inner.Send(m)
	l.rec.sent(l.s, n, start, time.Now())
	return err
}

func (l *tracedLink) Recv() (engine.Msg, error) {
	m, err := l.inner.Recv()
	if err == nil {
		l.rec.received(l.s, m, time.Now())
	}
	return m, err
}

func (l *tracedLink) Close() error { return l.inner.Close() }

func (r *recorder) noteSend(s *session, m engine.Msg, now time.Time) sendNote {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n sendNote
	switch m := m.(type) {
	case *engine.Assign:
		n = sendNote{kind: "assign", job: m.ID.A, blocks: len(m.Blocks)}
		if len(s.inflight) == 0 {
			if r.active {
				s.idleNS += now.Sub(s.idleSince).Nanoseconds()
			}
			s.busySince, s.busyJob = now, m.ID.A
		}
		s.inflight[m.ID] = now
		s.order = append(s.order, pendingSets{job: m.ID.A, left: m.Steps})
		if e := r.exec[m.ID.A]; e == nil && r.active {
			r.exec[m.ID.A] = &execTimes{first: now, last: now}
		}
	case *engine.Set:
		n.kind = "set"
		for _, b := range m.A {
			if b != nil {
				n.blocks++
			}
		}
		for _, b := range m.B {
			if b != nil {
				n.blocks++
			}
		}
		for i := range s.order {
			if s.order[i].left > 0 {
				n.job = s.order[i].job
				s.order[i].left--
				break
			}
		}
		for len(s.order) > 0 && s.order[0].left == 0 {
			s.order = s.order[1:]
		}
	case engine.Flush:
		n.kind = "flush"
		s.flushSince = now
	case engine.Bye:
		n.kind = "bye"
	default:
		n.kind = fmt.Sprintf("%T", m)
	}
	return n
}

func (r *recorder) sent(s *session, n sendNote, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.active {
		return
	}
	r.sendNS += end.Sub(start).Nanoseconds()
	r.blocksMoved += int64(n.blocks)
	switch n.kind {
	case "set":
		r.sets++
	case "flush":
		r.flushes++
	}
	r.addSpan(span{name: "engine.send", lane: s.lane, cause: n.kind, job: n.job, start: start, end: end})
}

func (r *recorder) received(s *session, m engine.Msg, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch m := m.(type) {
	case *engine.Result:
		sent, ok := s.inflight[m.ID]
		if !ok {
			return
		}
		delete(s.inflight, m.ID)
		if len(s.inflight) == 0 {
			r.addSpan(span{name: "engine.busy", lane: s.lane, cause: "assign", job: s.busyJob, start: s.busySince, end: now})
			s.idleSince = now
		}
		if !r.active {
			return
		}
		r.addSpan(span{name: "engine.assign", lane: s.lane, cause: "dispatch", job: m.ID.A, start: sent, end: now})
		r.blocksMoved += int64(len(m.Blocks))
		r.updates += m.Updates
		r.computeNS += m.ComputeNS
		if e := r.exec[m.ID.A]; e != nil {
			e.last = now
		}
	case *engine.FlushResult:
		flushSince := s.flushSince
		s.flushSince = time.Time{}
		if !r.active {
			return
		}
		r.blocksMoved += int64(len(m.Blocks))
		var first uint32
		for i, id := range m.IDs {
			job, _, _, ok := engine.CBlockCoords(id)
			if !ok {
				continue
			}
			if i == 0 {
				first = job
			}
			if e := r.exec[job]; e != nil {
				e.last = now
			}
		}
		if !flushSince.IsZero() {
			r.addSpan(span{name: "engine.flush", lane: s.lane, cause: "flush", job: first, start: flushSince, end: now})
		}
	}
}

// layerCounts is the recorder's view of one closed window.
type layerCounts struct {
	appendNS           []int64
	appendBytes        int64
	execMS             []float64
	idleNS             int64
	links              int
	sets, flushes      int64
	sendNS             int64
	blocksMoved        int64
	updates, computeNS int64
}

func (r *recorder) counts() layerCounts {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := layerCounts{
		appendNS: append([]int64(nil), r.appendNS...), appendBytes: r.appendBytes,
		links: len(r.sessions), sets: r.sets, flushes: r.flushes, sendNS: r.sendNS,
		blocksMoved: r.blocksMoved, updates: r.updates, computeNS: r.computeNS,
	}
	for _, s := range r.sessions {
		c.idleNS += s.idleNS
	}
	for _, e := range r.exec {
		c.execMS = append(c.execMS, float64(e.last.Sub(e.first).Nanoseconds())/1e6)
	}
	return c
}

// writeTrace writes the window's spans, and the per-worker Gantt chart
// drawn by internal/trace in mmsim's layout (assignments outstanding as
// each worker's compute lane, every send on the master link's comm
// lane), into dir.
func (r *recorder) writeTrace(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].start.Before(r.spans[j].start) })
	var b strings.Builder
	b.WriteString("name,lane,job,key,cause,start_s,end_s\n")
	var g trace.Trace
	for _, s := range r.spans {
		job := s.job
		if s.key != 0 {
			job = r.keyJob[s.key]
		}
		st, en := s.start.Sub(r.t0).Seconds(), s.end.Sub(r.t0).Seconds()
		fmt.Fprintf(&b, "%s,%s,%d,%d,%s,%.9f,%.9f\n", s.name, s.lane, job, s.key, s.cause, st, en)
		switch s.name {
		case "engine.busy":
			g.Add(s.lane, trace.Compute, st, en, fmt.Sprintf("job %d", job))
		case "engine.send":
			label := s.cause
			switch s.cause {
			case "set":
				label = "AB"
			case "assign":
				label = "C"
			}
			g.Add("M", trace.Comm, st, en, label+"→"+s.lane)
		}
	}
	files := map[string]string{
		"spans.csv": b.String(),
		"gantt.csv": g.CSV(),
		"gantt.svg": g.SVG(trace.SVGOptions{Width: 1600}),
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
