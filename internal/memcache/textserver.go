package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"

	"rnb/internal/obs"
)

// textServer is the server half of the text wire format — the inverse
// of textCodec — and the only server code that knows text bytes: the
// command grammar, noreply, the store-payload resync, the trace prefix
// line, and the one table turning an outcome into a reply line.
type textServer struct {
	// fields holds the current command line's words, reused across
	// requests. A get's key list aliases it. The words are views of the
	// line in the read buffer (keyView), so a command line costs no
	// string and no slice.
	fields []string
	// key holds a storage command's key while its data block is read:
	// filling the read buffer can slide the line's bytes.
	key []byte
}

// textCommands maps a verb to its command.
var textCommands = func() map[string]command {
	m := make(map[string]command)
	for c := cmdGet; c <= cmdStats; c++ {
		m[commandNames[c]] = c
	}
	m[commandNames[cmdQuit]] = cmdQuit
	m[commandNames[cmdTrace]] = cmdTrace
	return m
}()

// textOK is the success word of each command that answers with one,
// shared with the client's read half.
var textOK = [...]string{
	cmdSet: "STORED", cmdSetPinned: "STORED", cmdAdd: "STORED", cmdReplace: "STORED", cmdCAS: "STORED",
	cmdAppend: "STORED", cmdPrepend: "STORED",
	cmdDelete: "DELETED", cmdTouch: "TOUCHED", cmdFlushAll: "OK",
	cmdUnknown: "",
}

const badFormat = clientError("bad command line format")

// maxLineLen caps a command line, terminator included, as the binary
// server caps a frame body: a peer that never sends '\n' is dropped
// instead of growing the connection's heap without bound. A get line
// carries a whole multi-get, which the binary wire spreads over frames,
// so the cap admits 64Ki keys of the longest legal length.
const maxLineLen = 16 * MaxValueLen

var errLineTooLong = errors.New("memcache: text command line too long")

// readLine reads one \r\n- (or \n-) terminated line without the
// terminator. The slice is borrowed from the read buffer, valid until
// the next read, unless the line outgrew the buffer (a multi-get of
// thousands of keys) and was finished on the heap.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line = append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(line) <= maxLineLen {
			var more []byte
			more, err = r.ReadSlice('\n')
			line = append(line, more...)
		}
		if len(line) > maxLineLen {
			return nil, errLineTooLong
		}
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// appendFields splits s around runs of ASCII white space, like
// strings.Fields, appending the words to dst.
func appendFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// stripNoreply takes a trailing "noreply" word off args.
func (q *serverRequest) stripNoreply(args []string) []string {
	if n := len(args); n > 0 && args[n-1] == "noreply" {
		q.noreply = true
		return args[:n-1]
	}
	return args
}

func (c *textServer) read(r *bufio.Reader, q *serverRequest) error {
	var line []byte
	for len(line) == 0 { // blank lines are skipped, not answered
		var err error
		if line, err = readLine(r); err != nil {
			return err
		}
	}
	c.fields = appendFields(c.fields[:0], keyView(line))
	*q = serverRequest{}
	q.cmd = cmdUnknown
	if len(c.fields) > 0 {
		if cmd, ok := textCommands[c.fields[0]]; ok {
			q.cmd = cmd
		}
	}
	args := c.fields[min(1, len(c.fields)):]
	switch q.cmd {
	case cmdUnknown:
		q.bad = errUnknownCommand
	case cmdGet, cmdGets:
		q.keys = args
		if len(args) == 0 {
			q.bad = errUnknownCommand
		}
	case cmdIncr, cmdDecr, cmdDelete, cmdTouch:
		want := 2 // the key and a number
		if q.cmd == cmdDelete {
			want = 1
		}
		args = q.stripNoreply(args)
		if len(args) != want {
			q.bad = badFormat
			break
		}
		q.key = args[0]
		var err error
		switch q.cmd {
		case cmdIncr, cmdDecr:
			// 63 bits: the store computes in int64.
			if q.delta, err = parseUint(args[1], 63); err != nil {
				q.bad = clientError("invalid numeric delta argument")
			}
		case cmdTouch:
			if q.exp, err = parseInt32(args[1]); err != nil {
				q.bad = clientError("bad exptime")
			}
		}
	case cmdFlushAll:
		q.stripNoreply(args)
	case cmdTrace:
		// "trace <id> <span>": a malformed prefix answers ERROR.
		q.bad = errUnknownCommand
		if len(args) == 2 {
			id, err1 := parseUint(args[0], 64)
			span, err2 := parseUint(args[1], 64)
			if err1 == nil && err2 == nil && id != 0 {
				q.tc = obs.TraceContext{TraceID: id, Parent: span}
				q.bad = nil
			}
		}
	case cmdVersion, cmdStats, cmdQuit:
	default:
		return c.readStore(r, q, args)
	}
	return nil
}

// readStore reads a storage command: the rest of its line, then the
// data block. On a malformed line it still consumes the client's data
// block when the declared size is parseable, so the connection stays in
// sync, as memcached does; with an unparseable size nothing is consumed
// (the client cannot have meant a well-formed block).
func (c *textServer) readStore(r *bufio.Reader, q *serverRequest, args []string) error {
	want := 4
	if q.cmd == cmdCAS {
		want = 5
	}
	if len(args) == want+1 && args[want] == "noreply" {
		q.noreply = true
		args = args[:want]
	}
	size := -1
	if len(args) >= 4 {
		if v, err := parseUint(args[3], 31); err == nil && v <= MaxValueLen {
			size = int(v)
		}
	}
	if q.bad = parseStoreLine(args, want, size, &q.payload); q.bad != nil {
		if size < 0 {
			return nil
		}
		_, err := r.Discard(size + 2)
		return err
	}
	c.key = append(c.key[:0], args[0]...)
	data, err := readBlock(r, size+2)
	if err != nil {
		return err
	}
	if !bytes.HasSuffix(data, []byte("\r\n")) {
		q.bad = clientError("bad data chunk")
		return nil
	}
	q.payload.Key, q.payload.Value = keyView(c.key), data[:size]
	q.item = &q.payload
	return nil
}

// readBlock reads the next n bytes off r. When they fit its buffer they
// are a view of it, valid until the next read; only a larger block is
// copied onto the heap.
func readBlock(r *bufio.Reader, n int) ([]byte, error) {
	if n > r.Size() {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b, err := r.Peek(n)
	if err != nil {
		return nil, err
	}
	_, err = r.Discard(n)
	return b, err
}

// parseStoreLine parses "<key> <flags> <exptime> <bytes> [cas]" into it;
// size is the already-parsed byte count, negative when it did not parse.
func parseStoreLine(args []string, want, size int, it *Item) error {
	if len(args) != want {
		return badFormat
	}
	flags, err := parseUint(args[1], 32)
	if err != nil {
		return clientError("bad flags")
	}
	exp, err := parseInt32(args[2])
	if err != nil {
		return clientError("bad exptime")
	}
	if size < 0 {
		return clientError("bad data chunk size")
	}
	*it = Item{Flags: uint32(flags), Expiration: exp}
	if want == 5 {
		if it.CAS, err = parseUint(args[4], 64); err != nil {
			return clientError("bad cas id")
		}
	}
	return nil
}

func (c *textServer) write(w *bufio.Writer, q *serverRequest, p *serverReply) error {
	if q.noreply && q.bad == nil {
		return nil
	}
	// A bufio.Writer's first error sticks — every later write and the
	// flush return it — so only the last write of a reply is checked.
	scratch := lineScratch.Get().(*[320]byte)
	defer lineScratch.Put(scratch)
	b := scratch[:0]
	if p.err != nil {
		b = appendTextError(b, p.err)
		b = append(b, '\r', '\n')
		_, err := w.Write(b)
		return err
	}
	switch q.cmd {
	case cmdGet, cmdGets:
		for _, it := range p.hits {
			if it == nil {
				continue
			}
			b = append(scratch[:0], "VALUE "...)
			b = append(b, it.Key...)
			b = appendUintField(b, uint64(it.Flags))
			b = appendUintField(b, uint64(len(it.Value)))
			if q.cmd == cmdGets {
				b = appendUintField(b, it.CAS)
			}
			b = append(b, '\r', '\n')
			w.Write(b)
			w.Write(it.Value)
			w.WriteString("\r\n")
		}
		b = append(scratch[:0], "END"...)
	case cmdStats:
		for i := 0; i+1 < len(p.stats); i += 2 {
			b = append(scratch[:0], "STAT "...)
			b = append(b, p.stats[i]...)
			b = append(b, ' ')
			b = append(b, p.stats[i+1]...)
			b = append(b, '\r', '\n')
			w.Write(b)
		}
		b = append(scratch[:0], "END"...)
	case cmdIncr, cmdDecr:
		b = strconv.AppendUint(b, p.value, 10)
	case cmdVersion:
		b = append(b, "VERSION "...)
		b = append(b, VersionBanner...)
	case cmdQuit:
		return nil
	default:
		b = append(b, textOK[q.cmd]...)
	}
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	return err
}

// appendTextError is the text wire's one outcome table: the reply line
// is chosen by the error, whichever verb ran into it.
func appendTextError(b []byte, err error) []byte {
	_, refused := err.(clientError)
	switch {
	case errors.Is(err, ErrNotStored):
		return append(b, "NOT_STORED"...)
	case errors.Is(err, ErrCASConflict):
		return append(b, "EXISTS"...)
	case errors.Is(err, ErrCacheMiss):
		return append(b, "NOT_FOUND"...)
	case errors.Is(err, ErrBadKey):
		return append(b, "CLIENT_ERROR bad key"...)
	case errors.Is(err, ErrTooLarge):
		return append(b, "SERVER_ERROR object too large for cache"...)
	case errors.Is(err, errUnknownCommand):
		return append(b, "ERROR"...)
	case refused, errors.Is(err, errNonNumeric):
		b = append(b, "CLIENT_ERROR "...)
	default:
		b = append(b, "SERVER_ERROR "...)
	}
	return append(b, err.Error()...)
}

// writeTimings emits the "TRACE ..." line readTraceReply consumes.
func (c *textServer) writeTimings(w *bufio.Writer, st *obs.ServerTimings) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, "TRACE"...)
	for _, v := range timingWords(st) {
		b = appendUintField(b, v)
	}
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}
