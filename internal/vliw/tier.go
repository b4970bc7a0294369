package vliw

import (
	"encoding/json"
	"fmt"
)

// Tier names one of the simulator's two execution tiers. Both run the
// identical architectural semantics — exit value, output, and every Stats
// counter are bit-identical across tiers, the invariant the fuzz oracle
// enforces — and differ only in how much dynamic checking a certificate
// discharges and in how instructions are dispatched.
//
//	TierChecked  the reference interpreter: every dynamic check live, no
//	             certificate
//	TierNative   closure-threaded translation of the certified image:
//	             resource/race checks skipped (schedcheck Certificate),
//	             plus the value guards of every site a safecheck
//	             SafeCertificate proves deleted
//
// The zero value is TierChecked, so an unset options field means "fully
// checked".
type Tier int

const (
	TierChecked Tier = iota
	TierNative
)

var tierNames = [...]string{
	TierChecked: "checked",
	TierNative:  "native",
}

func (t Tier) String() string {
	if t >= 0 && int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// ParseTier maps a tier name ("checked", "native") to its Tier. The empty
// string parses as TierChecked, so optional flags and JSON fields need no
// special-casing.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "checked":
		return TierChecked, nil
	case "native":
		return TierNative, nil
	}
	return 0, fmt.Errorf("unknown execution tier %q (want checked or native)", s)
}

// MarshalJSON renders the tier by name: "tier":"native".
func (t Tier) MarshalJSON() ([]byte, error) {
	if t < 0 || int(t) >= len(tierNames) {
		return nil, fmt.Errorf("cannot marshal invalid execution tier %d", int(t))
	}
	return json.Marshal(t.String())
}

// UnmarshalJSON accepts the tier name; null and "" mean TierChecked.
func (t *Tier) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*t = TierChecked
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("execution tier must be a string: %w", err)
	}
	v, err := ParseTier(s)
	if err != nil {
		return err
	}
	*t = v
	return nil
}
