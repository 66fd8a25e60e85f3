package netmw

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/matrix"
)

// This file adapts the wire protocol (proto.go) to the engine's typed
// messages: each transport owns one side of one connection, translating
// engine.Msg values to frames and back. All protocol *logic* (routing,
// staging, prefetch, slot gating) lives in internal/engine; these types
// only frame, encode and decode — and recycle buffers, so the
// steady-state path allocates per connection, not per message: frames
// are read into a per-connection scratch buffer, payloads are encoded
// into another, and block payloads decode into pooled q² buffers that
// their consumers release (see engine.BlockPool).

// connIO bundles the shared per-connection state of every transport.
type connIO struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	pool *engine.BlockPool
	// enc, when set, is the shared encode cache: an operand block
	// broadcast to many workers is serialized once (framecache.go).
	enc *frameCache

	wmu      sync.Mutex  // serializes writers (dispatcher/event loop/heartbeat)
	wbuf     []byte      // frame scratch (header + payload), reused under wmu
	wpayload []byte      // block-payload arena for gathered set writes, under wmu
	wiovec   net.Buffers // gathered-write vector, backing array reused under wmu
	rscratch []byte      // frame scratch, single reader goroutine
	rhdr     [5]byte     // frame-header scratch, single reader goroutine

	bytesOut atomic.Int64 // bytes written to the peer (egress accounting)
	bytesIn  atomic.Int64 // bytes read from the peer (ingress accounting)
}

// WireStats is one connection's byte accounting, as exposed by the
// Stats accessor every transport shares: the estimator derives link
// bandwidth from it and mmserve status reports it, off the same counts.
type WireStats struct {
	BytesOut int64 // egress: frames written to the peer
	BytesIn  int64 // ingress: frames read from the peer
}

func newConnIO(conn net.Conn, r *bufio.Reader, w *bufio.Writer, pool *engine.BlockPool) *connIO {
	if r == nil {
		r = bufio.NewReaderSize(conn, 1<<20)
	}
	if w == nil {
		w = bufio.NewWriterSize(conn, 1<<20)
	}
	return &connIO{conn: conn, r: r, w: w, pool: pool}
}

// writeFrame frames and flushes one message built by fill, which
// appends the payload to the reused scratch buffer. The 5-byte frame
// header is built in the same buffer, so one Write moves the whole
// frame and nothing escapes per message.
func (c *connIO) writeFrame(t MsgType, fill func(buf []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := c.wbuf[:0]
	buf = append(buf, byte(t), 0, 0, 0, 0)
	if fill != nil {
		buf = fill(buf)
	}
	c.wbuf = buf
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
	if _, err := c.w.Write(buf); err != nil {
		return err
	}
	c.bytesOut.Add(int64(len(buf)))
	return c.w.Flush()
}

// BytesOut reports the bytes this transport has written to its peer —
// the measured egress the communication benchmarks compare against the
// §4 lower bound.
func (c *connIO) BytesOut() int64 { return c.bytesOut.Load() }

// Stats snapshots the connection's byte counters. This is the single
// accessor the bandwidth estimator and the status page both read.
func (c *connIO) Stats() WireStats {
	return WireStats{BytesOut: c.bytesOut.Load(), BytesIn: c.bytesIn.Load()}
}

// readFrame reads one frame into the connection scratch buffer. The
// payload aliases the scratch and must be fully consumed before the
// next readFrame.
func (c *connIO) readFrame() (MsgType, []byte, error) {
	t, payload, scratch, err := readMsgReuse(c.r, c.rscratch, &c.rhdr)
	c.rscratch = scratch
	if err == nil {
		c.bytesIn.Add(int64(msgHeaderLen + len(payload)))
	}
	return t, payload, err
}

func (c *connIO) Close() error { return c.conn.Close() }

// sendSet frames a delta Set — header, block-ID manifest, then only the
// payloads the worker lacks — releasing owned operand buffers once
// serialized and recycling the message. The frame is written with a
// gathered write (net.Buffers → writev on TCP): the header+manifest
// scratch and each block's payload go out as separate iovecs, so block
// bytes are never concatenated into a per-message buffer, and payloads
// of blocks in the shared encode cache are reused across workers.
func (c *connIO) sendSet(set *engine.Set) error {
	err := c.writeSetFrame(set)
	if err == nil {
		c.pool.PutSet(set)
	}
	return err
}

func (c *connIO) writeSetFrame(set *engine.Set) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	nA, nB := len(set.A), len(set.B)
	if nA > int(^uint16(0)) || nB > int(^uint16(0)) {
		return fmt.Errorf("netmw: set with %d+%d operands does not fit the wire", nA, nB)
	}
	hdr := c.wbuf[:0]
	hdr = append(hdr, byte(MsgSet), 0, 0, 0, 0) // frame header, length patched below
	var word [8]byte
	binary.LittleEndian.PutUint32(word[:4], uint32(set.K))
	hdr = append(hdr, word[:4]...)
	binary.LittleEndian.PutUint32(word[:4], capOnWire(set.Cap))
	hdr = append(hdr, word[:4]...)
	binary.LittleEndian.PutUint16(word[:2], uint16(nA))
	hdr = append(hdr, word[:2]...)
	binary.LittleEndian.PutUint16(word[:2], uint16(nB))
	hdr = append(hdr, word[:2]...)

	// Size the payload arena up front so the per-block slices taken from
	// it below stay valid (no reallocation mid-gather). The extra 4 bytes
	// hold the trailing payload CRC.
	need := 4
	for _, blk := range set.A {
		need += 8 * len(blk)
	}
	for _, blk := range set.B {
		need += 8 * len(blk)
	}
	if cap(c.wpayload) < need {
		c.wpayload = make([]byte, 0, need)
	}
	arena := c.wpayload[:0]

	iov := append(c.wiovec[:0], nil) // hdr goes in slot 0 once its length is known
	payloadBytes := 0
	for half := 0; half < 2; half++ {
		blocks, ids := set.A, set.AIDs
		if half == 1 {
			blocks, ids = set.B, set.BIDs
		}
		for i, blk := range blocks {
			var id uint64
			if i < len(ids) {
				id = ids[i]
			}
			binary.LittleEndian.PutUint64(word[:], id)
			hdr = append(hdr, word[:]...)
			if blk == nil {
				hdr = append(hdr, 0) // resident on the worker: manifest only
				continue
			}
			hdr = append(hdr, 1)
			var bs []byte
			if c.enc != nil && id != 0 {
				bs = c.enc.encoded(id, blk)
			} else {
				off := len(arena)
				arena = matrix.AppendFloats(arena, blk)
				bs = arena[off:]
			}
			iov = append(iov, bs)
			payloadBytes += len(bs)
			if set.Owned {
				c.pool.Put(blk)
			}
		}
	}
	// Payload CRC32C, accumulated over the bytes as they will appear on
	// the wire (header past the frame bytes, then each gathered block
	// iovec) and shipped as a trailing 4-byte iovec cut from the arena —
	// pre-sized above, so this append cannot reallocate the arena out
	// from under the block slices already in the vector.
	sum := crc32.Update(0, crcTable, hdr[msgHeaderLen:])
	for _, bs := range iov[1:] {
		sum = crc32.Update(sum, crcTable, bs)
	}
	crcOff := len(arena)
	binary.LittleEndian.PutUint32(word[:4], sum)
	arena = append(arena, word[:4]...)
	iov = append(iov, arena[crcOff:])
	payloadBytes += 4
	c.wpayload = arena
	c.wbuf = hdr
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(hdr)-5+payloadBytes))
	iov[0] = hdr
	c.wiovec = iov
	if err := c.w.Flush(); err != nil { // order against bufio frames
		return err
	}
	// WriteTo consumes the vector (a writev per syscall batch on TCP);
	// it advances the local header while the backing array stays with
	// the connection for reuse.
	n, err := iov.WriteTo(c.conn)
	c.bytesOut.Add(n)
	return err
}

// capOnWire clamps a cache capacity into its uint32 wire field.
func capOnWire(cap int) uint32 {
	if cap < 0 {
		return 0
	}
	if uint64(cap) > uint64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(cap)
}

// appendBlocks encodes a block list and releases it if owned.
func (c *connIO) appendBlocks(buf []byte, blocks [][]float64, owned bool) []byte {
	for _, blk := range blocks {
		buf = matrix.AppendFloats(buf, blk)
	}
	if owned {
		c.pool.PutAll(blocks)
	}
	return buf
}

// appendCFlags encodes an assignment's result-residency tail prefix:
// the uint16 flag count then the flag bytes. A nil/empty flag list is
// the legacy dense protocol (count 0, full payload follows). C-tile
// payloads never go through the shared encode cache — unlike operand
// blocks they are mutable state, different per assignment.
func appendCFlags(buf []byte, flags []byte) []byte {
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(flags)))
	buf = append(buf, n[:]...)
	return append(buf, flags...)
}

// checkCFlagsOnWire rejects flag lists that do not fit the uint16 count
// field before anything is framed.
func checkCFlagsOnWire(flags []byte) error {
	if len(flags) > int(^uint16(0)) {
		return fmt.Errorf("netmw: %d C flags do not fit the wire", len(flags))
	}
	return nil
}

// sendFlushResult frames a flush manifest — uint32 block count, then
// per block a uint64 tile ID, a uint32 element count and the raw
// doubles — releasing owned buffers once serialized.
func (c *connIO) sendFlushResult(fr *engine.FlushResult) error {
	if len(fr.IDs) != len(fr.Blocks) {
		return fmt.Errorf("netmw: flush manifest has %d ids but %d blocks", len(fr.IDs), len(fr.Blocks))
	}
	err := c.writeFrame(MsgFlushResult, func(buf []byte) []byte {
		off := len(buf)
		var word [8]byte
		binary.LittleEndian.PutUint32(word[:4], uint32(len(fr.IDs)))
		buf = append(buf, word[:4]...)
		binary.LittleEndian.PutUint64(word[:], uint64(fr.ComputeNS))
		buf = append(buf, word[:]...)
		for i, id := range fr.IDs {
			binary.LittleEndian.PutUint64(word[:], id)
			buf = append(buf, word[:]...)
			binary.LittleEndian.PutUint32(word[:4], uint32(len(fr.Blocks[i])))
			buf = append(buf, word[:4]...)
			buf = matrix.AppendFloats(buf, fr.Blocks[i])
		}
		return appendCRC(buf, off)
	})
	if err == nil && fr.Owned {
		c.pool.PutAll(fr.Blocks)
	}
	return err
}

// decodeFlushResult decodes a MsgFlushResult payload with strict
// validation: the declared count must match the bytes present, every ID
// must be a well-formed C-tile ID and every element count plausible —
// a mismatch errors before trusting any length for an allocation.
func decodeFlushResult(payload []byte, pool *engine.BlockPool) (*engine.FlushResult, error) {
	payload, err := splitCRC(payload)
	if err != nil {
		return nil, err
	}
	if len(payload) < 12 {
		return nil, fmt.Errorf("netmw: short flush result payload (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload))
	computeNS := int64(binary.LittleEndian.Uint64(payload[4:]))
	payload = payload[12:]
	if count > maxWireDim*maxWireDim {
		return nil, fmt.Errorf("netmw: flush result declares %d blocks", count)
	}
	if computeNS < 0 {
		return nil, fmt.Errorf("netmw: flush result declares negative compute time")
	}
	fr := &engine.FlushResult{Owned: true, ComputeNS: computeNS}
	for i := 0; i < count; i++ {
		if len(payload) < 12 {
			return nil, fmt.Errorf("netmw: flush result truncated at block %d", i)
		}
		id := binary.LittleEndian.Uint64(payload)
		n := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[12:]
		if _, _, _, ok := engine.CBlockCoords(id); !ok {
			return nil, fmt.Errorf("netmw: flush result block %d has malformed tile id %#x", i, id)
		}
		if n < 1 || n > maxWireDim*maxWireDim {
			return nil, fmt.Errorf("netmw: flush result block %d declares %d elements", i, n)
		}
		if len(payload) < 8*n {
			return nil, fmt.Errorf("netmw: flush result block %d payload truncated (%d of %d bytes)",
				i, len(payload), 8*n)
		}
		blk := pool.Get(n)
		matrix.ReadFloats(blk, payload)
		payload = payload[8*n:]
		fr.IDs = append(fr.IDs, id)
		fr.Blocks = append(fr.Blocks, blk)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("netmw: flush result has %d trailing bytes", len(payload))
	}
	return fr, nil
}

// geomEntry tracks the declared geometry of one in-flight assignment on
// the worker side, so update-set frames (which carry no geometry of
// their own) decode against the assignment they belong to. Assignments
// are computed FIFO and the master streams sets to the oldest
// incomplete one, so a FIFO of (geometry, sets remaining) suffices.
type geomEntry struct {
	rows, cols, q int
	left          int
}

type geomFIFO struct{ q []geomEntry }

func (g *geomFIFO) push(rows, cols, q, steps int) {
	g.q = append(g.q, geomEntry{rows: rows, cols: cols, q: q, left: steps})
}

// front returns the oldest entry with sets left to receive.
func (g *geomFIFO) front() *geomEntry {
	for len(g.q) > 0 && g.q[0].left == 0 {
		g.q = g.q[1:]
	}
	if len(g.q) == 0 {
		return nil
	}
	return &g.q[0]
}

// decodeSetPooled decodes a delta MsgSet payload against the front
// geometry, into pooled buffers. The manifest is validated strictly:
// entry counts must match the open assignment's geometry, flags must be
// 0 or 1, a cache reference must carry a well-formed tracked ID, and
// the payload must hold exactly the flagged blocks — a count or
// geometry mismatch errors before any block-sized allocation, and the
// decoder never reads past the declared entries.
func decodeSetPooled(payload []byte, g *geomFIFO, pool *engine.BlockPool) (*engine.Set, error) {
	// Wire integrity first: a checksum mismatch is transport corruption
	// regardless of what the manifest would have decoded to.
	payload, err := splitCRC(payload)
	if err != nil {
		return nil, err
	}
	fr := g.front()
	if fr == nil {
		return nil, fmt.Errorf("netmw: update set with no open assignment")
	}
	if len(payload) < setHeaderLen {
		return nil, fmt.Errorf("netmw: short set payload (%d bytes)", len(payload))
	}
	rows, cols, q := fr.rows, fr.cols, fr.q
	nA := int(binary.LittleEndian.Uint16(payload[8:]))
	nB := int(binary.LittleEndian.Uint16(payload[10:]))
	if nA != rows || nB != cols {
		return nil, fmt.Errorf("netmw: set manifest is %d+%d entries, open assignment wants %d+%d",
			nA, nB, rows, cols)
	}
	entries := payload[setHeaderLen:]
	manifestLen := setEntryLen * (nA + nB)
	if len(entries) < manifestLen {
		return nil, fmt.Errorf("netmw: set manifest truncated (%d of %d bytes)", len(entries), manifestLen)
	}
	blocks := entries[manifestLen:]
	included := 0
	for e := 0; e < nA+nB; e++ {
		id := binary.LittleEndian.Uint64(entries[e*setEntryLen:])
		flag := entries[e*setEntryLen+8]
		switch {
		case flag > 1:
			return nil, fmt.Errorf("netmw: set manifest entry %d has flag %d", e, flag)
		case flag == 1:
			included++
		case id == 0:
			return nil, fmt.Errorf("netmw: set manifest entry %d references an untracked block without payload", e)
		}
		if id != 0 && !engine.ValidBlockID(id) {
			return nil, fmt.Errorf("netmw: set manifest entry %d has malformed block id %#x", e, id)
		}
	}
	if err := checkBlockPayload(len(blocks), included, q); err != nil {
		return nil, err
	}
	if len(blocks) != included*q*q*8 {
		return nil, fmt.Errorf("netmw: set payload is %d bytes for %d flagged blocks of q=%d",
			len(blocks), included, q)
	}
	set := pool.GetSet()
	set.K = int(binary.LittleEndian.Uint32(payload))
	set.Cap = int(binary.LittleEndian.Uint32(payload[4:]))
	set.Owned = true
	for e := 0; e < nA+nB; e++ {
		id := binary.LittleEndian.Uint64(entries[:8])
		flag := entries[8]
		entries = entries[setEntryLen:]
		var blk []float64 // nil = resolved from the resident cache
		if flag == 1 {
			blk = pool.Get(q * q)
			matrix.ReadFloats(blk, blocks)
			blocks = blocks[8*q*q:]
		}
		if e < nA {
			set.A = append(set.A, blk)
			set.AIDs = append(set.AIDs, id)
		} else {
			set.B = append(set.B, blk)
			set.BIDs = append(set.BIDs, id)
		}
	}
	fr.left--
	return set, nil
}

// decodeFlatBlocks cuts a flat float payload into pooled q²-blocks
// appended to dst (a recycled header).
func decodeFlatBlocks(dst [][]float64, rest []byte, q int, pool *engine.BlockPool) ([][]float64, error) {
	if q < 1 || q > maxWireDim {
		return nil, fmt.Errorf("netmw: bad block size q=%d", q)
	}
	bs := q * q * 8
	if len(rest)%bs != 0 {
		return nil, fmt.Errorf("netmw: result payload %d bytes is not whole q=%d blocks", len(rest), q)
	}
	blocks, _, err := decodeBlocksInto(dst, rest, len(rest)/bs, q, pool)
	return blocks, err
}

// --- cluster worker side -------------------------------------------------

// clusterWorkerTransport is the worker end of the cluster protocol:
// tasks are pushed (MsgTask), only update sets are pulled, results
// return as MsgTaskResult carrying the (Job, Seq, Attempt) identity.
type clusterWorkerTransport struct {
	*connIO
	geom geomFIFO
}

// NewClusterWorkerTransport wraps the worker side of a connection to a
// cluster server (post-registration). pool may be nil.
func NewClusterWorkerTransport(conn net.Conn, pool *engine.BlockPool) engine.Transport {
	return newClusterWorkerTransport(conn, pool)
}

func newClusterWorkerTransport(conn net.Conn, pool *engine.BlockPool) *clusterWorkerTransport {
	return &clusterWorkerTransport{connIO: newConnIO(conn, nil, nil, pool)}
}

// sendRegister announces the worker before the engine starts.
func (t *clusterWorkerTransport) sendRegister(ri RegisterInfo) error {
	return t.writeFrame(MsgRegister, func(buf []byte) []byte {
		return append(buf, ri.encode()...)
	})
}

// sendHeartbeat emits a liveness beacon; safe concurrently with Send.
func (t *clusterWorkerTransport) sendHeartbeat() error {
	return t.writeFrame(MsgHeartbeat, nil)
}

func (t *clusterWorkerTransport) Send(m engine.Msg) error {
	switch m := m.(type) {
	case *engine.Request:
		return t.writeFrame(MsgReq, func(buf []byte) []byte {
			return append(buf, ReqSet)
		})
	case *engine.Result:
		hdr := TaskResultHeader{
			Job: m.ID.A, Seq: m.ID.B, Attempt: m.ID.C,
			Updates: uint64(m.Updates), ComputeNS: uint64(m.ComputeNS),
		}
		err := t.writeFrame(MsgTaskResult, func(buf []byte) []byte {
			off := len(buf)
			buf = append(buf, make([]byte, taskResultHeaderLen)...)
			hdr.encode(buf[off:])
			buf = t.appendBlocks(buf, m.Blocks, m.Owned)
			return appendCRC(buf, off)
		})
		if err == nil {
			t.pool.PutResult(m)
		}
		return err
	case *engine.FlushResult:
		return t.sendFlushResult(m)
	default:
		return fmt.Errorf("netmw: cluster worker transport cannot send %T", m)
	}
}

func (t *clusterWorkerTransport) Recv() (engine.Msg, error) {
	mt, payload, err := t.readFrame()
	if err != nil {
		return nil, err
	}
	switch mt {
	case MsgBye:
		return engine.Bye{}, nil
	case MsgFlush:
		return engine.Flush{}, nil
	case MsgTask:
		if payload, err = splitCRC(payload); err != nil {
			return nil, err
		}
		var hdr TaskHeader
		if err := hdr.decode(payload); err != nil {
			return nil, err
		}
		as := t.pool.GetAssign()
		if err := decodeAssignBlocks(as, payload[taskHeaderLen:],
			int(hdr.Rows), int(hdr.Cols), int(hdr.Q), int(hdr.Steps), t.pool); err != nil {
			return nil, err
		}
		t.geom.push(int(hdr.Rows), int(hdr.Cols), int(hdr.Q), int(hdr.Steps))
		as.ID = engine.AssignID{A: hdr.Job, B: hdr.Seq, C: hdr.Attempt}
		as.I0, as.J0 = int(hdr.I0), int(hdr.J0)
		as.Rows, as.Cols, as.Q, as.Steps = int(hdr.Rows), int(hdr.Cols), int(hdr.Q), int(hdr.Steps)
		as.CJob = hdr.Job
		as.Owned = true
		return as, nil
	case MsgSet:
		return decodeSetPooled(payload, &t.geom, t.pool)
	default:
		return nil, fmt.Errorf("netmw: cluster worker got unexpected message %d", mt)
	}
}

// --- cluster server side -------------------------------------------------

// serverTransport is the server end of one cluster worker session.
// Heartbeats are consumed inside Recv through the onHeartbeat hook; a
// hook error severs the connection (the peer re-registers).
type serverTransport struct {
	*connIO
	onHeartbeat func() error

	mu   sync.Mutex
	geom map[engine.AssignID]int // in-flight assignment → q, for result decode
}

// NewServerTransport wraps the server side of one cluster worker
// connection (post-registration). onHeartbeat consumes MsgHeartbeat
// frames; returning an error severs the connection. pool may be nil.
func NewServerTransport(conn net.Conn, pool *engine.BlockPool, onHeartbeat func() error) engine.Transport {
	return newServerTransport(conn, nil, nil, pool, nil, onHeartbeat)
}

func newServerTransport(conn net.Conn, r *bufio.Reader, w *bufio.Writer, pool *engine.BlockPool, enc *frameCache, onHeartbeat func() error) *serverTransport {
	io := newConnIO(conn, r, w, pool)
	io.enc = enc
	return &serverTransport{
		connIO:      io,
		onHeartbeat: onHeartbeat,
		geom:        make(map[engine.AssignID]int),
	}
}

func (t *serverTransport) Send(m engine.Msg) error {
	switch m := m.(type) {
	case *engine.Assign:
		if err := checkCFlagsOnWire(m.CFlags); err != nil {
			return err
		}
		hdr := TaskHeader{
			Job: m.ID.A, Seq: m.ID.B, Attempt: m.ID.C,
			Steps: uint32(m.Steps), I0: uint32(m.I0), J0: uint32(m.J0),
			Rows: uint32(m.Rows), Cols: uint32(m.Cols), Q: uint32(m.Q),
		}
		t.mu.Lock()
		t.geom[m.ID] = m.Q
		t.mu.Unlock()
		err := t.writeFrame(MsgTask, func(buf []byte) []byte {
			off := len(buf)
			buf = append(buf, make([]byte, taskHeaderLen)...)
			hdr.encode(buf[off:])
			buf = appendCFlags(buf, m.CFlags)
			buf = t.appendBlocks(buf, m.Blocks, m.Owned)
			return appendCRC(buf, off)
		})
		if err == nil {
			t.pool.PutAssign(m)
		}
		return err
	case *engine.Set:
		return t.sendSet(m)
	case engine.Flush:
		return t.writeFrame(MsgFlush, nil)
	case engine.Bye:
		return t.writeFrame(MsgBye, nil)
	default:
		return fmt.Errorf("netmw: server transport cannot send %T", m)
	}
}

func (t *serverTransport) Recv() (engine.Msg, error) {
	for {
		mt, payload, err := t.readFrame()
		if err != nil {
			return nil, err
		}
		switch mt {
		case MsgHeartbeat:
			if err := t.onHeartbeat(); err != nil {
				// Stale incarnation (declared dead, or replaced by a
				// reconnect): drop the connection so the peer
				// re-registers.
				t.conn.Close()
				return nil, err
			}
		case MsgReq:
			if len(payload) != 1 || payload[0] != ReqSet {
				return nil, fmt.Errorf("netmw: bad worker request")
			}
			return engine.RequestSet, nil
		case MsgTaskResult:
			if payload, err = splitCRC(payload); err != nil {
				return nil, err
			}
			var hdr TaskResultHeader
			if err := hdr.decode(payload); err != nil {
				return nil, err
			}
			id := engine.AssignID{A: hdr.Job, B: hdr.Seq, C: hdr.Attempt}
			t.mu.Lock()
			q, ok := t.geom[id]
			delete(t.geom, id)
			t.mu.Unlock()
			if !ok {
				return nil, fmt.Errorf("netmw: result for unknown assignment %v", id)
			}
			res := t.pool.GetResult()
			res.Blocks, err = decodeFlatBlocks(res.Blocks, payload[taskResultHeaderLen:], q, t.pool)
			if err != nil {
				return nil, err
			}
			res.ID = id
			res.Owned = true
			// Clamp to int64 so a hostile peer cannot smuggle negative
			// timing into the estimator.
			if hdr.Updates <= 1<<62 && hdr.ComputeNS <= 1<<62 {
				res.Updates, res.ComputeNS = int64(hdr.Updates), int64(hdr.ComputeNS)
			}
			return res, nil
		case MsgFlushResult:
			return decodeFlushResult(payload, t.pool)
		default:
			return nil, fmt.Errorf("netmw: unexpected message %d from cluster worker", mt)
		}
	}
}
