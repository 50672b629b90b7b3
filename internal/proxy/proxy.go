// Package proxy implements an RnB-aware memcached proxy, in the spirit
// of moxi (paper §III-E ref. [12]): legacy applications keep speaking
// plain memcached to a single address, while the proxy replicates
// writes, bundles multi-gets with the greedy planner, recovers misses
// from distinguished copies, and writes items back where the planner
// wants them.
//
// This is the deployment story of §I-C ("relatively easy to deploy and
// configure") made concrete: inserting RnB requires no application
// changes at all — only repointing the memcached address at the proxy.
//
//	app ──memcached protocol──► proxy ──RnB bundling──► server tier
package proxy

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
)

// Proxy adapts an rnb.Client to the memcache.Backend interface so a
// memcache.Server can front it.
type Proxy struct {
	client *rnb.Client

	// counters
	requests     atomic.Uint64
	backendTxns  atomic.Uint64
	round2       atomic.Uint64
	hitchhikers  atomic.Uint64
	loadedFromDB atomic.Uint64
}

// New wraps an RnB client. The caller owns the client's lifetime.
func New(client *rnb.Client) *Proxy {
	return &Proxy{client: client}
}

// Client returns the underlying RnB client.
func (p *Proxy) Client() *rnb.Client { return p.client }

// RegisterMetrics names the proxy's request counters, and every family
// of the underlying client, in reg. Hand it the front server's registry
// (memcache.Server.Registry) and both /metrics and the front's "stats"
// command answer them.
func (p *Proxy) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("proxy_requests", "Multi-get requests served.", p.requests.Load)
	reg.Counter("proxy_backend_txns", "Backend round trips issued for those requests.", p.backendTxns.Load)
	reg.Counter("proxy_round2_txns", "Distinguished-copy recovery round trips.", p.round2.Load)
	reg.Counter("proxy_hitchhikers", "Extra keys piggybacked onto planned transactions.", p.hitchhikers.Load)
	reg.Counter("proxy_db_loads", "Keys fetched from the cache-aside loader.", p.loadedFromDB.Load)
	reg.Gauge("proxy_replicas", "Configured logical replication level.",
		func() int64 { return int64(p.client.Replicas()) })
	reg.Gauge("proxy_servers", "Backend server count.",
		func() int64 { return int64(len(p.client.Servers())) })
	p.client.RegisterMetrics(reg)
}

// GetMulti implements memcache.Backend with full RnB bundling: it is
// GetMultiTraced with no trace context, which leaves the choice to the
// client's head sampler as a plain rnb.Client.GetMulti does.
func (p *Proxy) GetMulti(keys []string) (map[string]*memcache.Item, error) {
	return p.GetMultiTraced(obs.TraceContext{}, keys)
}

// GetMultiTraced implements the memcache server's tracedBackend
// extension: a trace context that arrived on the proxy's front wire is
// carried through the RnB client onto the backend wire, so one trace id
// stitches app → proxy → server tier. It is the proxy's one read body,
// the place every multi-get's stats are counted.
func (p *Proxy) GetMultiTraced(tc obs.TraceContext, keys []string) (map[string]*memcache.Item, error) {
	p.requests.Add(1)
	items, stats, err := p.client.GetMultiTraced(tc, keys)
	if err != nil {
		return nil, err
	}
	p.backendTxns.Add(uint64(stats.Transactions))
	p.round2.Add(uint64(stats.Round2))
	p.hitchhikers.Add(uint64(stats.Hitchhikers))
	p.loadedFromDB.Add(uint64(stats.Loaded))
	return items, nil
}

// GetsMulti implements memcache.Backend: CAS tokens must be
// authoritative, so keys are read from their distinguished servers
// (bundled per server), not from whichever replica the planner would
// prefer.
func (p *Proxy) GetsMulti(keys []string) (map[string]*memcache.Item, error) {
	items, err := p.client.GetsDistinguished(keys)
	if err != nil {
		return nil, err
	}
	return items, nil
}

// Set implements memcache.Backend: replicate to every replica server.
func (p *Proxy) Set(it *memcache.Item) error { return p.client.Set(it) }

// SetPinned implements memcache.Backend. The RnB client already pins
// the distinguished copy on Set, so "setp" through the proxy is the
// same operation.
func (p *Proxy) SetPinned(it *memcache.Item) error { return p.client.Set(it) }

// Add implements memcache.Backend: succeed only if the key is absent
// from its distinguished server, then replicate.
func (p *Proxy) Add(it *memcache.Item) error {
	if _, err := p.client.Get(it.Key); err == nil {
		return memcache.ErrNotStored
	} else if !errors.Is(err, memcache.ErrCacheMiss) {
		return err
	}
	return p.client.Set(it)
}

// Replace implements memcache.Backend: succeed only if the key exists
// on its distinguished server, then replicate.
func (p *Proxy) Replace(it *memcache.Item) error {
	if _, err := p.client.Get(it.Key); err != nil {
		if errors.Is(err, memcache.ErrCacheMiss) {
			return memcache.ErrNotStored
		}
		return err
	}
	return p.client.Set(it)
}

// CompareAndSwap implements memcache.Backend using the §IV atomic
// scheme: CAS against the distinguished copy; on success the stale
// replicas are dropped and repopulate on demand.
func (p *Proxy) CompareAndSwap(it *memcache.Item) error {
	if err := p.client.UpdateCAS(it); err != nil {
		return err
	}
	return nil
}

// Append implements memcache.Backend via the §IV distinguished-copy
// mutation scheme.
func (p *Proxy) Append(key string, data []byte) error { return p.client.Append(key, data) }

// Prepend implements memcache.Backend.
func (p *Proxy) Prepend(key string, data []byte) error { return p.client.Prepend(key, data) }

// Increment implements memcache.Backend.
func (p *Proxy) Increment(key string, delta int64) (uint64, error) {
	return p.client.Increment(key, delta)
}

// Delete implements memcache.Backend: remove every replica.
func (p *Proxy) Delete(key string) error { return p.client.Delete(key) }

// Touch implements memcache.Backend: touch every replica.
func (p *Proxy) Touch(key string, exp int32) error { return p.client.Touch(key, exp) }

// FlushAll implements memcache.Backend: flush the whole tier.
func (p *Proxy) FlushAll() error { return p.client.FlushAll() }

// BackendStats returns the front's "stats" lines that are not metrics
// (every counter and gauge comes from the registry): per-backend
// breaker health, so "stats" against the proxy shows which servers are
// quarantined and why. Keys are the stable slot index; a drained
// backend's keys disappear with it (ServerStates omits completed
// drains), so resizes leave no ghost entries.
func (p *Proxy) BackendStats() map[string]string {
	out := map[string]string{}
	for _, st := range p.client.ServerStates() {
		out[fmt.Sprintf("proxy_server_%d_addr", st.Index)] = st.Addr
		out[fmt.Sprintf("proxy_server_%d_phase", st.Index)] = st.Phase
		out[fmt.Sprintf("proxy_server_%d_state", st.Index)] = st.State.String()
		out[fmt.Sprintf("proxy_server_%d_failures", st.Index)] = strconv.Itoa(st.ConsecutiveFailures)
	}
	return out
}

var _ memcache.Backend = (*Proxy)(nil)
