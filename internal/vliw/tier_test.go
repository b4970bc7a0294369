package vliw

import (
	"encoding/json"
	"testing"
)

func TestTierStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		tier Tier
		name string
	}{
		{TierChecked, "checked"},
		{TierNative, "native"},
	} {
		if got := tc.tier.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", int(tc.tier), got, tc.name)
		}
		parsed, err := ParseTier(tc.name)
		if err != nil || parsed != tc.tier {
			t.Errorf("ParseTier(%q) = %v, %v, want %v", tc.name, parsed, err, tc.tier)
		}
	}
	if parsed, err := ParseTier(""); err != nil || parsed != TierChecked {
		t.Errorf("ParseTier(\"\") = %v, %v, want checked", parsed, err)
	}
	// "fast" and "safe" named the interpreter tiers the native tier
	// replaced; they are unknown names now, like any other.
	for _, name := range []string{"turbo", "fast", "safe"} {
		if _, err := ParseTier(name); err == nil {
			t.Errorf("ParseTier accepted unknown tier name %q", name)
		}
	}
}

func TestTierJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(TierNative)
	if err != nil || string(b) != `"native"` {
		t.Fatalf("Marshal(TierNative) = %s, %v, want \"native\"", b, err)
	}
	var tr Tier
	if err := json.Unmarshal([]byte(`"native"`), &tr); err != nil || tr != TierNative {
		t.Fatalf("Unmarshal(\"native\") = %v, %v", tr, err)
	}
	if err := json.Unmarshal([]byte(`null`), &tr); err != nil || tr != TierChecked {
		t.Fatalf("Unmarshal(null) = %v, %v, want checked", tr, err)
	}
	for _, name := range []string{`"warp"`, `"fast"`, `"safe"`} {
		if err := json.Unmarshal([]byte(name), &tr); err == nil {
			t.Fatalf("Unmarshal accepted unknown tier name %s", name)
		}
	}
	var req struct {
		Tier Tier `json:"tier"`
	}
	if err := json.Unmarshal([]byte(`{"tier":"safe"}`), &req); err == nil {
		t.Fatal(`{"tier":"safe"} decoded without error`)
	}
	if _, err := json.Marshal(Tier(17)); err == nil {
		t.Fatal("Marshal accepted an out-of-range tier")
	}
}
