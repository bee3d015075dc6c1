package redshift

import (
	"reflect"
	"strings"
	"testing"

	"redshift/internal/core"
)

// TestSettingsSurface pins every exported field of the types a caller
// configures the warehouse through. Each one is a door someone can set and
// every battery has to cover, so a new knob fails here until this list is
// edited in plain view — and a knob nothing sets belongs removed, its
// default a constant, rather than listed.
func TestSettingsSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf(Options{}), "Nodes SlicesPerNode BlockCap Interpreted DisasterRecovery Encrypted " +
			"BroadcastRows SyntaxJoinOrder CohortSize WLMQueues BlockCacheBytes FaultPlan WLMSlotMemBytes " +
			"SpillDir PlanCacheEntries ResultCacheBytes BurstThreshold"},
		{reflect.TypeOf(core.Config{}), "Cluster Mode Plan DataStore WLMQueues Metrics QueryLogSize " +
			"BlockCacheBytes Faults WLMSlotMemBytes SpillDir PlanCacheEntries ResultCacheBytes"},
		{reflect.TypeOf(core.QueueSpec{}), "Name Slots MemFraction Priority MaxEstRows Timeout"},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("%v fields:\n got %s\nwant %s", c.typ, strings.Join(got, " "), c.want)
		}
	}
}
