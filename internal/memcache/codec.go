package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"rnb/internal/obs"
)

// This file is the text codec: the only client code that knows text
// wire bytes. textCodec maps each command onto one write half and one
// read half operating on bare bufio endpoints. A request is fully
// described by that (write, read) pair, which is what makes pipelining
// sound: in-order execution against one connection needs no other
// shared state, so Client's callers write their halves back to back on
// a shared connection and whoever holds the reader role runs the read
// halves in request order.
//
// The codec is written to stay off the allocator on the steady-state
// path: command lines are assembled in pooled scratch buffers, response
// lines are borrowed from the bufio buffer via ReadSlice instead of
// copied out, and numeric fields parse straight from bytes. The
// allocation-budget tests in alloc_test.go gate these properties.

// textCodec speaks the memcached text protocol.
type textCodec struct{}

func (textCodec) check(command, *Item) error { return nil }

func (textCodec) encode(w *bufio.Writer, q *request) error {
	switch q.cmd {
	case cmdGet, cmdGets, cmdDelete:
		if q.traced { // gets only
			if err := writeTraceCmd(w, q.tc); err != nil {
				return err
			}
		}
		var one [1]string
		return writeKeysCmd(w, commandNames[q.cmd], q.keyList(&one))
	case cmdFlushAll, cmdVersion, cmdStats:
		return writeKeysCmd(w, commandNames[q.cmd], nil)
	case cmdIncr, cmdDecr:
		return writeIncrDecrCmd(w, commandNames[q.cmd], q.key, q.delta)
	case cmdTouch:
		return writeTouchCmd(w, q.key, q.exp)
	default:
		return writeStoreCmd(w, commandNames[q.cmd], q.item)
	}
}

func (textCodec) decode(r *bufio.Reader, q *request, p *reply) (err error) {
	switch q.cmd {
	case cmdGet, cmdGets:
		var one [1]string
		if p.items, err = readValues(r, q.cmd == cmdGets, q.keyList(&one)); err != nil || !q.traced {
			return err
		}
		st := new(obs.ServerTimings)
		if err := readTraceReply(r, st); err != nil {
			return err
		}
		p.st = st
		return nil
	case cmdIncr, cmdDecr:
		p.value, err = readIncrDecrReply(r, commandNames[q.cmd])
		return err
	case cmdVersion:
		p.banner, err = readVersionReply(r)
		return err
	case cmdStats:
		return readStatsInto(r, q.stats)
	default: // the commands answered by one status word
		return readStatusReply(r, textOK[q.cmd])
	}
}

// replyError is a well-formed but negative or unexpected server reply
// ("SERVER_ERROR ...", an unknown status line, ...). The response was
// fully consumed, so the connection remains in sync and MUST NOT be
// torn down — unlike I/O and framing errors.
type replyError struct{ msg string }

func (e *replyError) Error() string { return e.msg }

// answeredError builds the canonical "server answered" replyError.
func answeredError(status string) error {
	return &replyError{msg: fmt.Sprintf("memcache: server answered %q", status)}
}

// IsConnFatal reports whether err leaves the connection in an unknown
// or unsynchronized state (I/O error, corrupt frame) — the one failure
// taxonomy the exchanger and the rnb breaker share. Protocol-level
// outcomes — cache misses, CAS conflicts, declined stores, key/size
// rejections, error status lines — consumed a complete reply (or never
// touched the wire) and keep the connection usable. ErrBadKey and
// ErrTooLarge matter for the binary transport, whose status replies map
// onto them; the text read halves never return either, so listing them
// is harmless there.
func IsConnFatal(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCacheMiss) || errors.Is(err, ErrNotStored) || errors.Is(err, ErrCASConflict) ||
		errors.Is(err, ErrBadKey) || errors.Is(err, ErrTooLarge) {
		return false
	}
	var re *replyError
	return !errors.As(err, &re)
}

// lineScratch pools the scratch buffers command lines are assembled in.
// 320 bytes covers the longest single-key line: verb + key (≤250) +
// three uint fields + a CAS token + separators.
var lineScratch = sync.Pool{New: func() interface{} { return new([320]byte) }}

// appendUintField appends a space and v in decimal: one numeric word of
// a command or reply line.
func appendUintField(b []byte, v uint64) []byte {
	b = append(b, ' ')
	return strconv.AppendUint(b, v, 10)
}

// readClientLine returns one CRLF-terminated response line WITHOUT
// copying it out of the bufio buffer: the slice is only valid until the
// next read. Client-facing response lines are bounded (the longest is a
// VALUE header: ~290 bytes), so a line overflowing the buffer is a
// protocol violation, reported as conn-fatal rather than ballooning.
func readClientLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("memcache: response line exceeds buffer")
		}
		return nil, err
	}
	// Trim the trailing \r\n (tolerating bare \n like the server does).
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// nextField splits the first space-delimited token off line, returning
// (token, rest). Runs of spaces are skipped, mirroring strings.Fields.
func nextField(line []byte) (tok, rest []byte) {
	for len(line) > 0 && line[0] == ' ' {
		line = line[1:]
	}
	i := bytes.IndexByte(line, ' ')
	if i < 0 {
		return line, nil
	}
	return line[:i], line[i:]
}

// --- get / gets / delete / flush_all / version / stats ---------------

// writeKeysCmd emits a command line made of a verb and zero or more
// keys: get, gets and delete, and the bare flush_all, version and stats.
func writeKeysCmd(w *bufio.Writer, verb string, keys []string) error {
	if _, err := w.WriteString(verb); err != nil {
		return err
	}
	for _, k := range keys {
		if err := w.WriteByte(' '); err != nil {
			return err
		}
		if _, err := w.WriteString(k); err != nil {
			return err
		}
	}
	_, err := w.WriteString("\r\n")
	return err
}

// readValues consumes VALUE blocks until END and returns the hits, in
// reply order, decoded into one replySlab: the items of one reply share
// an array and a value arena. keys is the request's key list; a hit it
// does not name still decodes, with a key string of its own. Any framing
// violation is conn-fatal: once a VALUE header fails to parse the stream
// position is unknown.
func readValues(r *bufio.Reader, withCAS bool, keys []string) ([]Item, error) {
	s := replySlab{keys: keys}
	for {
		line, err := readClientLine(r)
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return s.items, nil
		}
		if err := s.readValue(r, line, withCAS); err != nil {
			return nil, err
		}
	}
}

// readValue parses one "VALUE <key> <flags> <bytes> [cas]" header line
// plus its data block into the slab. line is borrowed from the read
// buffer, so the key is matched (or copied out) before the data-block
// read invalidates it.
func (s *replySlab) readValue(r *bufio.Reader, line []byte, withCAS bool) error {
	verb, rest := nextField(line)
	if !bytes.Equal(verb, []byte("VALUE")) {
		return fmt.Errorf("memcache: unexpected response line %q", line)
	}
	key, rest := nextField(rest)
	flagsTok, rest := nextField(rest)
	sizeTok, rest := nextField(rest)
	var casTok []byte
	if withCAS {
		casTok, rest = nextField(rest)
	}
	if tail, _ := nextField(rest); len(key) == 0 || len(sizeTok) == 0 || len(tail) != 0 ||
		(withCAS && len(casTok) == 0) {
		return fmt.Errorf("memcache: unexpected response line %q", line)
	}
	flags, err := parseUint(flagsTok, 32)
	if err != nil {
		return err
	}
	size, err := parseUint(sizeTok, 31)
	if err != nil {
		return err
	}
	if size > MaxValueLen {
		// A corrupt (or hostile) header must not drive the allocation
		// below: no legitimate server exceeds the protocol's value cap.
		return fmt.Errorf("memcache: VALUE header declares %d bytes (limit %d)", size, MaxValueLen)
	}
	var cas uint64
	if withCAS {
		if cas, err = parseUint(casTok, 64); err != nil {
			return err
		}
	}
	data := s.block(r, int(size), 2)
	it := s.add(s.find(key), key)
	it.Flags, it.CAS = uint32(flags), cas
	if _, err := io.ReadFull(r, data); err != nil {
		return err
	}
	if !bytes.HasSuffix(data, []byte("\r\n")) {
		return fmt.Errorf("memcache: corrupt data block for %s", it.Key)
	}
	it.Value = data[:size:size]
	return nil
}

// --- storage commands -------------------------------------------------

// appendStoreLine appends a storage command's line, "<verb> <key>
// <flags> <exptime> <bytes> [cas] [noreply]"; the data block follows it.
func appendStoreLine(b []byte, verb string, it *Item, noreply bool) []byte {
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, it.Key...)
	b = appendUintField(b, uint64(it.Flags))
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(it.Expiration), 10)
	b = appendUintField(b, uint64(len(it.Value)))
	if verb == "cas" {
		b = appendUintField(b, it.CAS)
	}
	if noreply {
		b = append(b, " noreply"...)
	}
	return append(b, '\r', '\n')
}

func writeStoreCmd(w *bufio.Writer, verb string, it *Item) error {
	scratch := lineScratch.Get().(*[320]byte)
	_, err := w.Write(appendStoreLine(scratch[:0], verb, it, false))
	lineScratch.Put(scratch)
	if err != nil {
		return err
	}
	if _, err := w.Write(it.Value); err != nil {
		return err
	}
	_, err = w.WriteString("\r\n")
	return err
}

// appendQuietAdd encodes "add ... noreply": the server stores or refuses
// it and answers neither, so the bytes can ride in front of any command
// without a reply of their own to read. The one line a server sends
// despite noreply answers a malformed command, which AddLater's checks
// (the ones Add makes) rule out.
func (textCodec) appendQuietAdd(b []byte, it *Item) []byte {
	b = appendStoreLine(b, commandNames[cmdAdd], it, true)
	b = append(b, it.Value...)
	return append(b, '\r', '\n')
}

// readStatusReply consumes the one-line reply of a command that returns
// no data. ok is the command's success word; the negative words are the
// same across commands, and anything else is an answered error that
// leaves the connection in sync.
func readStatusReply(r *bufio.Reader, ok string) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	switch {
	case string(line) == ok:
		return nil
	case bytes.Equal(line, []byte("NOT_STORED")):
		return ErrNotStored
	case bytes.Equal(line, []byte("EXISTS")):
		return ErrCASConflict
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return ErrCacheMiss
	default:
		return answeredError(string(line))
	}
}

// --- incr / decr ------------------------------------------------------

func writeIncrDecrCmd(w *bufio.Writer, verb, key string, delta uint64) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, verb...)
	b = append(b, ' ')
	b = append(b, key...)
	b = appendUintField(b, delta)
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

func readIncrDecrReply(r *bufio.Reader, verb string) (uint64, error) {
	line, err := readClientLine(r)
	if err != nil {
		return 0, err
	}
	if bytes.Equal(line, []byte("NOT_FOUND")) {
		return 0, ErrCacheMiss
	}
	if bytes.HasPrefix(line, []byte("CLIENT_ERROR")) || bytes.HasPrefix(line, []byte("SERVER_ERROR")) {
		return 0, answeredError(string(line))
	}
	v, perr := parseUint(line, 64)
	if perr != nil {
		return 0, &replyError{msg: fmt.Sprintf("memcache: unexpected %s response %q", verb, line)}
	}
	return v, nil
}

// --- touch -----------------------------------------------------------

func writeTouchCmd(w *bufio.Writer, key string, exp int32) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, "touch "...)
	b = append(b, key...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(exp), 10)
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

// --- version / stats --------------------------------------------------

func readVersionReply(r *bufio.Reader) (string, error) {
	line, err := readClientLine(r)
	if err != nil {
		return "", err
	}
	return string(bytes.TrimPrefix(line, []byte("VERSION "))), nil
}

func readStatsInto(r *bufio.Reader, out map[string]string) error {
	for {
		line, err := readClientLine(r)
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("END")) {
			return nil
		}
		verb, rest := nextField(line)
		if !bytes.Equal(verb, []byte("STAT")) {
			continue
		}
		key, rest := nextField(rest)
		if len(key) == 0 {
			continue
		}
		for len(rest) > 0 && rest[0] == ' ' {
			rest = rest[1:]
		}
		out[string(key)] = string(rest)
	}
}
