package rnb

import (
	"errors"
	"net"
	"testing"

	"rnb/internal/memcache"
)

// TestTransportErrorsUnwrap pins the %w wraps callers depend on: an
// error from a dead server keeps its transport cause through the
// client's wrap, so errors.As still finds it and memcache.IsConnFatal
// still classifies it as fatal. The server is closed and its stale
// pooled connection burned first; every operation after that redials
// and is refused, a cause that does not depend on timing.
func TestTransportErrorsUnwrap(t *testing.T) {
	cl, servers := newTestClient(t, 1, WithReplicas(1))
	if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	servers[0].Close()
	if err := cl.FlushAll(); err == nil {
		t.Fatal("FlushAll on a closed server succeeded")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Set (tier.write)", func() error { return cl.Set(&Item{Key: "k", Value: []byte("v")}) }},
		{"FlushAll", cl.FlushAll},
		{"GetsDistinguished", func() error { _, err := cl.GetsDistinguished([]string{"k"}); return err }},
		{"AddServer dial", func() error { return cl.AddServer(deadAddr) }},
	} {
		err := tc.op()
		var opErr *net.OpError
		if !errors.As(err, &opErr) || opErr.Op != "dial" {
			t.Errorf("%s: %v does not unwrap to the refused dial", tc.name, err)
		}
		if !memcache.IsConnFatal(err) {
			t.Errorf("%s: IsConnFatal(%v) = false", tc.name, err)
		}
	}
}
