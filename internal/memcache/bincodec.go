package memcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"rnb/internal/obs"
)

// This file is the binary codec: the only client code that knows
// binary wire bytes. binCodec maps each command onto one write half and
// one read half on bare bufio endpoints, exactly mirroring the text
// codec in codec.go, so either exchanger drives it unchanged — responses
// arrive strictly in request order and FIFO demux is exact.
//
// Multi-get is the paper's case for the binary protocol: N quiet gets
// (GetKQ) plus one terminating Noop form ONE transaction on the wire
// (the server batches the quiet run into a single backend multi-get),
// where the text protocol spends one parsed "get k1 k2 ..." line and N
// "VALUE ..." header parses. Misses cost zero response bytes. Binary
// frames always carry the CAS token, so get and gets share that
// pipeline.
//
// Error taxonomy matches the text codec: a malformed or out-of-sequence
// frame leaves the stream position unknown and is conn-fatal, while a
// fully consumed negative status (not found, not stored, CAS conflict)
// keeps the connection usable.

// binCodec speaks the memcached binary protocol.
type binCodec struct{}

// binOpcodes are the request opcodes of the single-frame commands. A
// cas store rides a Set frame carrying the token: the server routes
// cas != 0 to CompareAndSwap.
var binOpcodes = [...]byte{
	cmdSet: binOpSet, cmdSetPinned: binOpSetP, cmdAdd: binOpAdd, cmdReplace: binOpReplace, cmdCAS: binOpSet,
	cmdAppend: binOpAppend, cmdPrepend: binOpPrepend,
	cmdIncr: binOpIncrement, cmdDecr: binOpDecrement,
	cmdDelete: binOpDelete, cmdTouch: binOpTouch,
	cmdFlushAll: binOpFlush, cmdVersion: binOpVersion, cmdStats: binOpStat,
}

// check rejects a cas store with token zero: zero means "unconditional"
// on the binary wire, and silently demoting a conditional store to a
// plain set would be wrong — zero is never a token the store hands out.
func (binCodec) check(cmd command, it *Item) error {
	if cmd == cmdCAS && it.CAS == 0 {
		return ErrCASConflict
	}
	return nil
}

func (binCodec) encode(w *bufio.Writer, q *request) error {
	opcode := binOpcodes[q.cmd]
	switch q.cmd {
	case cmdGet, cmdGets:
		if q.traced {
			if err := writeBinTraceCmd(w, q.tc); err != nil {
				return err
			}
		}
		return writeBinMultiGetCmd(w, q.keyList())
	case cmdSet, cmdSetPinned, cmdAdd, cmdReplace:
		return writeBinStoreCmd(w, opcode, q.item, 0)
	case cmdCAS:
		return writeBinStoreCmd(w, opcode, q.item, q.item.CAS)
	case cmdAppend, cmdPrepend:
		return writeBinFrame(w, opcode, 0, 0, nil, q.item.Key, q.item.Value)
	case cmdIncr, cmdDecr:
		return writeBinIncrDecrCmd(w, opcode, q.key, q.delta)
	case cmdTouch:
		return writeBinTouchCmd(w, q.key, q.exp)
	default: // delete, flush, version, stat: a bare header plus key
		return writeBinFrame(w, opcode, 0, 0, nil, q.key, nil)
	}
}

// appendQuietAdd encodes an AddQ frame: an add whose success the server
// does not answer. Its failure it does — see skipBinQuietErrors.
func (binCodec) appendQuietAdd(b []byte, it *Item) []byte {
	extras := binStoreExtras(it)
	h := binHeader{magic: binMagicReq, opcode: binOpAddQ}
	b = h.appendHead(b, extras[:], it.Key, len(it.Value))
	return append(b, it.Value...)
}

func (binCodec) decode(r *bufio.Reader, q *request, p *reply) (err error) {
	if q.carried > 0 {
		if err := skipBinQuietErrors(r, q.carried); err != nil {
			return err
		}
	}
	opcode := binOpcodes[q.cmd]
	switch q.cmd {
	case cmdGet, cmdGets:
		if p.items, err = readBinMultiGet(r, q.keyList(), q.into...); err != nil || !q.traced {
			return err
		}
		st := new(obs.ServerTimings)
		if err := readBinTraceReply(r, st); err != nil {
			return err
		}
		p.st = st
		return nil
	case cmdIncr, cmdDecr:
		p.value, err = readBinCounterReply(r, opcode)
		return err
	case cmdVersion:
		p.banner, err = readBinVersionReply(r)
		return err
	case cmdStats:
		return readBinStatsInto(r, q.stats)
	default:
		return readBinStatusReply(r, opcode)
	}
}

// errBinDesync builds the canonical conn-fatal framing error.
func errBinDesync(format string, args ...interface{}) error {
	return fmt.Errorf("memcache: binary desync: "+format, args...)
}

// writeBinFrame emits one request frame.
func writeBinFrame(w *bufio.Writer, opcode byte, opaque uint32, cas uint64, extras []byte, key string, value []byte) error {
	h := binHeader{magic: binMagicReq, opcode: opcode, opaque: opaque, cas: cas}
	return h.write(w, extras, key, value)
}

// readBinHeader reads and validates one response header. Violations
// (wrong magic, impossible lengths) are conn-fatal by construction:
// the stream position afterwards would be unknown.
func readBinHeader(r *bufio.Reader, h *binHeader) error {
	// Peek+Discard instead of reading into a local buffer: the header is
	// decoded in place inside the reader's 64KiB buffer (always big
	// enough for 24 bytes), so the hot read path allocates nothing.
	hdr, err := r.Peek(binHeaderLen)
	if err != nil {
		return err
	}
	if err := h.decode(hdr); err != nil {
		return err
	}
	if _, err := r.Discard(binHeaderLen); err != nil {
		return err
	}
	if h.magic != binMagicRes {
		return errBinDesync("bad response magic 0x%02x", h.magic)
	}
	if h.bodyLen > MaxValueLen+uint32(h.keyLen)+uint32(h.extraLen) {
		// A corrupt (or hostile) header must not drive a giant
		// allocation or a multi-gigabyte discard.
		return errBinDesync("response body %d bytes exceeds limit", h.bodyLen)
	}
	return nil
}

// readBinReply reads the header of the one response frame a
// single-frame command expects. Any other opcode is a desync; a negative
// status consumes the frame's body (its error text) and comes back as
// the protocol error it maps to, leaving the connection in sync.
func readBinReply(r *bufio.Reader, opcode byte, h *binHeader) error {
	if err := readBinHeader(r, h); err != nil {
		return err
	}
	if h.opcode != opcode {
		return errBinDesync("response opcode 0x%02x, want 0x%02x", h.opcode, opcode)
	}
	if h.status != binStatusOK {
		if err := discardBinBody(r, h); err != nil {
			return err
		}
		return binStatusError(h.status)
	}
	return nil
}

// skipBinQuietErrors consumes the error frames that the n quiet adds
// written in front of a request may have produced. The server works a
// connection in order, so they come before the request's own reply, at
// most one per add, each a complete AddQ frame with a negative status
// (a refused add is the common one: the key was there). They report
// nothing the caller waits for. The first frame that is not one is left
// unread for the request's own decode, and a frame past the nth is
// that decode's to judge — to a request that carried nothing, an AddQ
// frame stays the desync it always was.
func skipBinQuietErrors(r *bufio.Reader, n int) error {
	var h binHeader
	for ; n > 0; n-- {
		hdr, err := r.Peek(binHeaderLen)
		if err != nil {
			return err
		}
		if hdr[1] != binOpAddQ {
			return nil
		}
		if err := readBinHeader(r, &h); err != nil {
			return err
		}
		if h.status == binStatusOK {
			return errBinDesync("quiet add answered its success")
		}
		if err := discardBinBody(r, &h); err != nil {
			return err
		}
	}
	return nil
}

// discardBinBody consumes a frame's body without retaining it.
func discardBinBody(r *bufio.Reader, h *binHeader) error {
	_, err := r.Discard(int(h.bodyLen))
	return err
}

// --- multi-get: GetKQ pipeline + Noop terminator ---------------------

// writeBinMultiGetCmd emits len(keys) quiet gets plus the terminating
// Noop. Quiet-get i carries opaque i and the Noop carries opaque
// len(keys), so the read half can detect reordered or foreign frames.
func writeBinMultiGetCmd(w *bufio.Writer, keys []string) error {
	for i, k := range keys {
		if err := writeBinFrame(w, binOpGetKQ, uint32(i), 0, nil, k, nil); err != nil {
			return err
		}
	}
	return writeBinFrame(w, binOpNoop, uint32(len(keys)), 0, nil, "", nil)
}

// readBinMultiGet consumes quiet-get responses until the terminating
// Noop and returns the hits, in reply order, decoded into one replySlab
// (and into, when given) like the text codec's: quiet-get i carried
// opaque i, so a hit borrows keys[opaque] as its key string when the
// server echoed that key.
// Misses are silent (that is the point of GetKQ); an errored quiet get
// consumed a complete frame and counts as a miss. Frames violating the
// expected shape — wrong opcode, opaque out of range or out of order,
// corrupt lengths — are conn-fatal.
func readBinMultiGet(r *bufio.Reader, keys []string, into ...Item) ([]Item, error) {
	n := len(keys)
	s := replySlab{keys: keys, items: into}
	var h binHeader
	last := -1
	for {
		if err := readBinHeader(r, &h); err != nil {
			return nil, err
		}
		switch h.opcode {
		case binOpNoop:
			if h.opaque != uint32(n) {
				return nil, errBinDesync("noop opaque %d, want %d", h.opaque, n)
			}
			if err := discardBinBody(r, &h); err != nil {
				return nil, err
			}
			return s.items, nil
		case binOpGetKQ:
		default:
			return nil, errBinDesync("opcode 0x%02x inside quiet-get pipeline", h.opcode)
		}
		if h.opaque >= uint32(n) || int(h.opaque) <= last {
			return nil, errBinDesync("quiet-get opaque %d out of order (last %d, batch %d)", h.opaque, last, n)
		}
		last = int(h.opaque)
		if h.status != binStatusOK {
			// Quiet semantics: an errored get is a miss; the frame is
			// fully consumed so the stream stays in sync.
			if err := discardBinBody(r, &h); err != nil {
				return nil, err
			}
			continue
		}
		if h.keyLen == 0 {
			return nil, errBinDesync("quiet-get hit without key")
		}
		// The whole body goes into the arena, as it went into a block of
		// its own before: extras and key ride along with the value.
		body := s.block(r, int(h.bodyLen), 0)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		keyEnd := uint32(h.extraLen) + uint32(h.keyLen)
		it := s.add(last, body[h.extraLen:keyEnd])
		it.Value, it.CAS = body[keyEnd:], h.cas
		if h.extraLen >= 4 {
			it.Flags = binary.BigEndian.Uint32(body[:4])
		}
	}
}

// --- single-frame commands -------------------------------------------

// binStatusError maps a response status onto the protocol error set.
// Unknown statuses become replyErrors: the frame was fully consumed, so
// the connection stays usable — mirroring the text codec's
// "server answered" rule.
func binStatusError(status uint16) error {
	switch status {
	case binStatusOK:
		return nil
	case binStatusNotFound:
		return ErrCacheMiss
	case binStatusExists:
		return ErrCASConflict
	case binStatusNotStored:
		return ErrNotStored
	case binStatusTooLarge:
		return ErrTooLarge
	case binStatusInvalidArgs:
		return ErrBadKey
	default:
		return &replyError{msg: fmt.Sprintf("memcache: server answered binary status 0x%04x", status)}
	}
}

// readBinStatusReply consumes exactly one response frame for opcode and
// maps its status. The body (error text on failures, empty on success)
// is discarded, so the connection is in sync whatever the outcome.
func readBinStatusReply(r *bufio.Reader, opcode byte) error {
	var h binHeader
	if err := readBinReply(r, opcode, &h); err != nil {
		return err
	}
	return discardBinBody(r, &h)
}

// writeBinStoreCmd emits one set/add/replace/setp frame (8-byte
// flags+exptime extras, per the memcached binary layout).
func writeBinStoreCmd(w *bufio.Writer, opcode byte, it *Item, cas uint64) error {
	extras := binStoreExtras(it)
	return writeBinFrame(w, opcode, 0, cas, extras[:], it.Key, it.Value)
}

// binStoreExtras is a storage frame's extras: flags, then exptime.
func binStoreExtras(it *Item) (extras [8]byte) {
	binary.BigEndian.PutUint32(extras[0:4], it.Flags)
	binary.BigEndian.PutUint32(extras[4:8], uint32(it.Expiration))
	return extras
}

// binNoAutoCreate in the incr/decr expiration field means "do not
// create missing counters" — the text protocol's semantics, which both
// transports must share for the differential suite to hold.
const binNoAutoCreate = 0xffffffff

// writeBinIncrDecrCmd emits an increment/decrement frame: 20-byte
// extras (delta, initial, expiration). Expiration is pinned to
// binNoAutoCreate so a missing key answers NotFound exactly like the
// text protocol's incr/decr.
func writeBinIncrDecrCmd(w *bufio.Writer, opcode byte, key string, delta uint64) error {
	var extras [20]byte
	binary.BigEndian.PutUint64(extras[0:8], delta)
	binary.BigEndian.PutUint32(extras[16:20], binNoAutoCreate)
	return writeBinFrame(w, opcode, 0, 0, extras[:], key, nil)
}

// readBinCounterReply consumes an incr/decr response and returns the
// new counter value (8-byte big-endian body on success).
func readBinCounterReply(r *bufio.Reader, opcode byte) (uint64, error) {
	var h binHeader
	if err := readBinReply(r, opcode, &h); err != nil {
		return 0, err
	}
	if h.bodyLen != 8 {
		return 0, errBinDesync("counter reply body %d bytes, want 8", h.bodyLen)
	}
	val, err := r.Peek(8)
	if err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(val)
	if _, err := r.Discard(8); err != nil {
		return 0, err
	}
	return v, nil
}

// writeBinTouchCmd emits a touch frame (4-byte expiration extras).
func writeBinTouchCmd(w *bufio.Writer, key string, exp int32) error {
	var extras [4]byte
	binary.BigEndian.PutUint32(extras[:], uint32(exp))
	return writeBinFrame(w, binOpTouch, 0, 0, extras[:], key, nil)
}

// readBinVersionReply consumes a version response and returns the
// banner.
func readBinVersionReply(r *bufio.Reader) (string, error) {
	var h binHeader
	if err := readBinReply(r, binOpVersion, &h); err != nil {
		return "", err
	}
	body := make([]byte, h.bodyLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return "", err
	}
	return string(body[uint32(h.extraLen)+uint32(h.keyLen):]), nil
}

// readBinStatsInto consumes STAT frames until the empty-key
// terminator, merging entries into out.
func readBinStatsInto(r *bufio.Reader, out map[string]string) error {
	var h binHeader
	for {
		if err := readBinReply(r, binOpStat, &h); err != nil {
			return err
		}
		if h.keyLen == 0 {
			return discardBinBody(r, &h) // terminator
		}
		body := make([]byte, h.bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return err
		}
		key := string(body[h.extraLen : uint32(h.extraLen)+uint32(h.keyLen)])
		out[key] = string(body[uint32(h.extraLen)+uint32(h.keyLen):])
	}
}
