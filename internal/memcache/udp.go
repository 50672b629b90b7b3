package memcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// UDP transport, in memcached's framing: every datagram carries an
// 8-byte header — request id, sequence number, total datagrams,
// reserved — followed by (a fragment of) the text protocol stream.
//
// The paper's Appendix A tried UDP for the micro-benchmarks and
// abandoned it: "the benchmark program suffered, as expected, from
// considerable packet loss issues when attempting to communicate with
// the server as fast as possible over a protocol without flow
// control." This implementation exists to make that trade-off
// reproducible: the UDP client detects datagram loss (gaps in the
// sequence) and reports ErrUDPLoss instead of hanging, and the
// transport is deliberately request/response only (no retransmission),
// exactly like memcached's.

// udpHeaderLen is the memcached UDP frame header size.
const udpHeaderLen = 8

// DefaultUDPPayload is the per-datagram payload budget. 1400 fits a
// standard MTU; the paper's setup used 8KB jumbo frames.
const DefaultUDPPayload = 1400

// ErrUDPLoss reports a response with missing datagrams.
var ErrUDPLoss = errors.New("memcache: udp response datagrams lost")

func putUDPHeader(buf []byte, reqID, seq, total uint16) {
	binary.BigEndian.PutUint16(buf[0:2], reqID)
	binary.BigEndian.PutUint16(buf[2:4], seq)
	binary.BigEndian.PutUint16(buf[4:6], total)
	binary.BigEndian.PutUint16(buf[6:8], 0)
}

func parseUDPHeader(buf []byte) (reqID, seq, total uint16, err error) {
	if len(buf) < udpHeaderLen {
		return 0, 0, 0, fmt.Errorf("memcache: short udp frame (%d bytes)", len(buf))
	}
	return binary.BigEndian.Uint16(buf[0:2]),
		binary.BigEndian.Uint16(buf[2:4]),
		binary.BigEndian.Uint16(buf[4:6]),
		nil
}

// UDPServer serves the text protocol over UDP datagrams, one request
// per datagram, responses split across framed datagrams.
type UDPServer struct {
	srv     *Server // its request path and backend, fed one datagram at a time
	conn    *net.UDPConn
	payload int

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewUDPServer wraps the given (TCP) protocol server's backend for
// UDP. payload <= 0 selects DefaultUDPPayload.
func NewUDPServer(srv *Server, payload int) *UDPServer {
	if payload <= 0 {
		payload = DefaultUDPPayload
	}
	return &UDPServer{srv: srv, payload: payload}
}

// ListenAndServe binds addr ("127.0.0.1:0" picks a port) and serves
// until Close.
func (u *UDPServer) ListenAndServe(addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		conn.Close()
		return errors.New("memcache: udp server closed")
	}
	u.conn = conn
	u.mu.Unlock()

	buf := make([]byte, 64<<10)
	for {
		n, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		pkt := make([]byte, n)
		copy(pkt, buf[:n])
		u.mu.Lock()
		if u.closed {
			u.mu.Unlock()
			return nil
		}
		u.wg.Add(1)
		u.mu.Unlock()
		go func() {
			defer u.wg.Done()
			u.handlePacket(pkt, raddr)
		}()
	}
}

// Addr returns the bound address, or "" before ListenAndServe.
func (u *UDPServer) Addr() string {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.conn == nil {
		return ""
	}
	return u.conn.LocalAddr().String()
}

// Close stops the server.
func (u *UDPServer) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	conn := u.conn
	u.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	u.wg.Wait()
	return err
}

// handlePacket processes one request datagram and sends the framed
// response.
func (u *UDPServer) handlePacket(pkt []byte, raddr *net.UDPAddr) {
	reqID, seq, total, err := parseUDPHeader(pkt)
	if err != nil || seq != 0 || total != 1 {
		return // multi-datagram requests are not part of the protocol
	}
	// One datagram is one request on the server's own request path.
	var out bytes.Buffer
	c := u.srv.newServerConn(&textServer{}, bytes.NewReader(pkt[udpHeaderLen:]), &out, 4096)
	if _, err := c.serveOne(); err != nil {
		return
	}
	u.sendResponse(reqID, out.Bytes(), raddr)
}

func (u *UDPServer) sendResponse(reqID uint16, payload []byte, raddr *net.UDPAddr) {
	chunks := (len(payload) + u.payload - 1) / u.payload
	if chunks == 0 {
		chunks = 1
	}
	if chunks > 0xffff {
		return // cannot be represented; drop, as memcached does
	}
	frame := make([]byte, udpHeaderLen+u.payload)
	for i := 0; i < chunks; i++ {
		lo := i * u.payload
		hi := lo + u.payload
		if hi > len(payload) {
			hi = len(payload)
		}
		putUDPHeader(frame, reqID, uint16(i), uint16(chunks))
		n := copy(frame[udpHeaderLen:], payload[lo:hi])
		u.conn.WriteToUDP(frame[:udpHeaderLen+n], raddr)
	}
}

// UDPClient is a minimal text-protocol client over UDP. One in-flight
// request at a time (guarded); no retransmission — lost datagrams
// surface as ErrUDPLoss or a timeout, reproducing the paper's
// observation about flow control.
type UDPClient struct {
	mu      sync.Mutex
	conn    *net.UDPConn
	timeout time.Duration
	reqID   uint16
	// Losses counts responses abandoned due to missing datagrams or
	// timeouts.
	losses uint64
}

// DialUDP connects (in the UDP sense) to addr.
func DialUDP(addr string, timeout time.Duration) (*UDPClient, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	return &UDPClient{conn: conn, timeout: timeout}, nil
}

// Close releases the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }

// Losses reports how many responses were lost or incomplete.
func (c *UDPClient) Losses() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.losses
}

// roundTrip sends one framed text command and reassembles the framed
// response.
func (c *UDPClient) roundTrip(cmd []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqID++
	id := c.reqID

	frame := make([]byte, udpHeaderLen+len(cmd))
	putUDPHeader(frame, id, 0, 1)
	copy(frame[udpHeaderLen:], cmd)
	// The mutex intentionally makes this transport single-flight: the
	// response is matched to the request by reqID on a shared socket
	// and read buffer, so exclusivity must span the full round trip.
	//rnblint:ignore lockheld single-flight UDP transport; the lock must span the socket round trip
	if _, err := c.conn.Write(frame); err != nil {
		return nil, err
	}

	deadline := time.Now().Add(c.timeout)
	buf := make([]byte, 64<<10)
	var parts [][]byte
	total := -1
	received := 0
	for {
		c.conn.SetReadDeadline(deadline)
		//rnblint:ignore lockheld single-flight UDP transport; the lock must span the socket round trip
		n, err := c.conn.Read(buf)
		if err != nil {
			c.losses++
			return nil, fmt.Errorf("%w: %w", ErrUDPLoss, err)
		}
		reqID, seq, tot, err := parseUDPHeader(buf[:n])
		if err != nil {
			continue
		}
		if reqID != id {
			continue // stale response from a previous (lost) request
		}
		if total == -1 {
			total = int(tot)
			parts = make([][]byte, total)
		}
		if int(seq) >= total || parts[seq] != nil {
			continue
		}
		parts[seq] = append([]byte(nil), buf[udpHeaderLen:n]...)
		received++
		if received == total {
			break
		}
	}
	var out bytes.Buffer
	for _, p := range parts {
		out.Write(p)
	}
	return out.Bytes(), nil
}

// do sends q as one datagram of text-codec bytes and decodes the
// reassembled reply into rep with the same codec.
func (c *UDPClient) do(q *request, rep *reply) error {
	var cmd bytes.Buffer
	w := bufio.NewWriter(&cmd)
	if err := (textCodec{}).encode(w, q); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	resp, err := c.roundTrip(cmd.Bytes())
	if err != nil {
		return err
	}
	return textCodec{}.decode(bufio.NewReader(bytes.NewReader(resp)), q, rep)
}

// Get fetches keys over UDP in one request datagram.
func (c *UDPClient) Get(keys ...string) (map[string]*Item, error) {
	for _, k := range keys {
		if !validKey(k) {
			return nil, ErrBadKey
		}
	}
	var rep reply
	if len(keys) > 0 {
		if err := c.do(&request{cmd: cmdGet, keys: keys}, &rep); err != nil {
			return nil, err
		}
	}
	return itemMap(rep.items), nil
}

// Set stores an item over UDP. Responses are awaited (no noreply), so
// the caller learns about loss.
func (c *UDPClient) Set(it *Item) error {
	if err := checkItem(it); err != nil {
		return err
	}
	var rep reply
	return c.do(&request{cmd: cmdSet, item: it}, &rep)
}

// Version fetches the server banner over UDP.
func (c *UDPClient) Version() (string, error) {
	var rep reply
	err := c.do(&request{cmd: cmdVersion}, &rep)
	return rep.banner, err
}
