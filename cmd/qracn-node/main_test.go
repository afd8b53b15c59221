package main

import "testing"

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		id              int
		spec            string
		shardID, degree int
		ok              bool
		groups          int // of the parsed map; 0: unsharded
	}{
		{0, "", -1, 0, true, 0},
		{4, "0-2;3-5", -1, 0, true, 2},
		{4, "0-2;3-5", 1, 2, true, 2},
		{0, "", 0, 0, false, 0},         // -shard-id without a map
		{0, "", -1, 3, false, 0},        // -shard-degree without a map
		{7, "0-2;3-5", -1, 0, false, 0}, // the map does not place the node
		{4, "0-2;3-5", 0, 0, false, 0},  // -shard-id contradicts the map
		{0, "0-x", -1, 0, false, 0},     // the map does not parse
	} {
		m, err := parseShards(tc.id, tc.spec, tc.shardID, tc.degree)
		if (err == nil) != tc.ok {
			t.Errorf("parseShards(%d, %q, %d, %d) = %v, want ok=%v", tc.id, tc.spec, tc.shardID, tc.degree, err, tc.ok)
			continue
		}
		got := 0
		if m != nil {
			got = m.NumShards()
		}
		if got != tc.groups {
			t.Errorf("parseShards(%d, %q, %d, %d) has %d groups, want %d", tc.id, tc.spec, tc.shardID, tc.degree, got, tc.groups)
		}
	}
}
