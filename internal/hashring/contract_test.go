package hashring_test

import (
	"testing"

	"rnb/internal/hashring"
	"rnb/internal/hashring/placementtest"
)

// TestPlacementContract runs every hashring-native placement through
// the shared contract battery (internal/hashring/placementtest). The
// adaptive wrapper (internal/hotspot) and the CBC construction
// (internal/cbc) run the same battery from their own packages.
func TestPlacementContract(t *testing.T) {
	const servers, replicas = 16, 4
	for name, p := range map[string]hashring.Placement{
		"rch":       hashring.NewRCHPlacement(hashring.NewWithServers(servers, 64), replicas),
		"multihash": hashring.NewMultiHashPlacement(servers, replicas, 1),
		"jump":      hashring.NewJumpPlacement(servers, replicas, 1),
	} {
		t.Run(name, func(t *testing.T) { placementtest.Run(t, p, 1000) })
	}
}

// TestPlacementContractClamped covers the replicas > servers corner:
// the contract's length floor is min(NumReplicas, NumServers).
func TestPlacementContractClamped(t *testing.T) {
	const servers, replicas = 3, 8
	for name, p := range map[string]hashring.Placement{
		"rch":       hashring.NewRCHPlacement(hashring.NewWithServers(servers, 32), replicas),
		"multihash": hashring.NewMultiHashPlacement(servers, replicas, 1),
		"jump":      hashring.NewJumpPlacement(servers, replicas, 1),
	} {
		t.Run(name, func(t *testing.T) { placementtest.Run(t, p, 300) })
	}
}
