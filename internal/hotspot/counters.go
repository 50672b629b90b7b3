package hotspot

import (
	"sync/atomic"

	"rnb/internal/obs"
)

// Counters tracks the adaptive hot-key replication machinery: epoch
// rotations, promotions and demotions of keys to/from boosted
// replication, and the live summary-error signal from the heat tracker.
// All fields are atomics, bumped in place by the controller; the zero
// value is ready.
type Counters struct {
	Epochs       atomic.Uint64
	Observed     atomic.Uint64
	Promotions   atomic.Uint64
	Demotions    atomic.Uint64
	SketchErrGap atomic.Uint64

	HotKeys       atomic.Int64
	BoostReplicas atomic.Int64
}

// Register names every field, once, for every rendering of reg.
func (c *Counters) Register(reg *obs.Registry) {
	reg.Counter("rnb_hotspot_epochs", "Heat-table rotations (controller runs).", c.Epochs.Load)
	reg.Counter("rnb_hotspot_observed", "Keys ingested from the request stream by the heat tracker.", c.Observed.Load)
	reg.Counter("rnb_hotspot_promotions", "Keys granted a boosted replication degree, re-promotions to a higher level included.", c.Promotions.Load)
	reg.Counter("rnb_hotspot_demotions", "Keys returned to the baseline replication degree.", c.Demotions.Load)
	reg.Counter("rnb_hotspot_sketch_err_gap", "Summed per harvest: Count-Min upper bound minus SpaceSaving lower bound over the harvested keys — how noisy the heat signal is.", c.SketchErrGap.Load)
	reg.Gauge("rnb_hotspot_hot_keys", "Keys currently boosted.", c.HotKeys.Load)
	reg.Gauge("rnb_hotspot_boost_replicas", "Extra replicas currently granted across all boosted keys (the RAM-overhead upper bound, in items).", c.BoostReplicas.Load)
}
