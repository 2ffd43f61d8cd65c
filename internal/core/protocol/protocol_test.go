package protocol

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"presence/internal/core"
	"presence/internal/core/dcpp"
	"presence/internal/core/naive"
	"presence/internal/core/sapp"
	"presence/internal/ident"
)

type nopEnv struct{}

func (nopEnv) Now() time.Duration              { return 0 }
func (nopEnv) Send(ident.NodeID, core.Message) {}
func (nopEnv) SetAlarm(time.Duration)          {}
func (nopEnv) StopAlarm()                      {}

func TestProtocolTable(t *testing.T) {
	for _, tc := range []struct {
		name           Name
		device, policy any
	}{
		{SAPP, &sapp.Device{}, &sapp.Policy{}},
		{DCPP, &dcpp.Device{}, &dcpp.Policy{}},
		{Naive, &naive.Device{}, &naive.Policy{}},
	} {
		if !tc.name.Valid() {
			t.Errorf("%s: not Valid", tc.name)
		}
		dev, err := tc.name.NewDevice(1, nopEnv{}, Params{})
		if err != nil {
			t.Fatalf("%s: NewDevice with zero Params: %v", tc.name, err)
		}
		if got, want := fmt.Sprintf("%T", dev), fmt.Sprintf("%T", tc.device); got != want {
			t.Errorf("%s: NewDevice built %s, want %s", tc.name, got, want)
		}
		pol, err := tc.name.NewPolicy(Params{})
		if err != nil {
			t.Fatalf("%s: NewPolicy with zero Params: %v", tc.name, err)
		}
		if got, want := fmt.Sprintf("%T", pol), fmt.Sprintf("%T", tc.policy); got != want {
			t.Errorf("%s: NewPolicy built %s, want %s", tc.name, got, want)
		}
	}

	want := Params{
		SAPPDevice:  sapp.DefaultDeviceConfig(),
		SAPPCP:      sapp.DefaultCPConfig(),
		DCPPDevice:  dcpp.DefaultDeviceConfig(),
		NaivePeriod: naive.DefaultPeriod,
	}
	if got := (Params{}).WithDefaults(); got != want {
		t.Errorf("Params{}.WithDefaults() = %+v, want %+v", got, want)
	}

	const unknown Name = "swim"
	if unknown.Valid() {
		t.Error("unknown protocol is Valid")
	}
	if _, err := unknown.NewDevice(1, nopEnv{}, Params{}); err == nil || !strings.Contains(err.Error(), `"swim"`) {
		t.Errorf("NewDevice(%q) error = %v, want one naming it", unknown, err)
	}
	if _, err := unknown.NewPolicy(Params{}); err == nil || !strings.Contains(err.Error(), `"swim"`) {
		t.Errorf("NewPolicy(%q) error = %v, want one naming it", unknown, err)
	}
}
