package obs

// The admin plane: HTTP mutation endpoints over the fleet's runtime
// administration API (internal/fleet admin.go). Config.Admin opts in —
// the status plane stays read-only by default, so exposing /metrics to
// a scraper never exposes mutations. All endpoints are POST-only
// (except GET /admin/config) and exchange small JSON documents:
//
//	POST /admin/cp/add       {"id":7,"device":1,"addr":"127.0.0.1:9300",
//	                          "protocol":"dcpp"}        → {"id":7,"shard":2}
//	POST /admin/cp/remove    {"id":7}                   → {"removed":true}
//	POST /admin/device/add   {"id":1,"protocol":"dcpp"} → {"id":1,"addr":"..."}
//	POST /admin/device/remove{"id":1}                   → {"removed":true}
//	POST /admin/drain        {"shard":2}                → {"moved":41}
//	POST /admin/rebalance    {}                         → {"moved":41}
//	GET  /admin/config                                  → {"version":1,"config":{...}}
//	POST /admin/config       {"harden":true}            → {"version":2}
//
// POST /admin/config is a partial update: absent fields keep their
// current values (read-modify-write over Fleet.ConfigSnapshot), so
// flipping one knob never resets another. Durations travel as Go
// duration strings ("1.5s", "300ms").

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"presence/internal/core"
	"presence/internal/core/protocol"
	"presence/internal/fleet"
	"presence/internal/ident"
)

func (s *Server) registerAdmin() {
	s.mux.HandleFunc("POST /admin/cp/add", s.handleCPAdd)
	s.mux.HandleFunc("POST /admin/cp/remove", s.handleCPRemove)
	s.mux.HandleFunc("POST /admin/device/add", s.handleDeviceAdd)
	s.mux.HandleFunc("POST /admin/device/remove", s.handleDeviceRemove)
	s.mux.HandleFunc("POST /admin/drain", s.handleDrain)
	s.mux.HandleFunc("POST /admin/rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /admin/config", s.handleConfigGet)
	s.mux.HandleFunc("POST /admin/config", s.handleConfigSet)
}

// maxAdminBody bounds admin request documents; they are all tiny.
const maxAdminBody = 1 << 16

func readJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAdminBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// adminError maps a fleet admin error onto an HTTP status:
// back-pressure (full admission queue) is 503 — the retryable class —
// and everything else is a caller mistake.
func adminError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, fleet.ErrAdmissionRejected) {
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

// retransmitDTO is core.RetransmitConfig with durations as strings.
type retransmitDTO struct {
	FirstTimeout   string `json:"first_timeout,omitempty"`
	RetryTimeout   string `json:"retry_timeout,omitempty"`
	MaxRetransmits int    `json:"max_retransmits,omitempty"`
}

func (d *retransmitDTO) config() (core.RetransmitConfig, error) {
	var rc core.RetransmitConfig
	if d == nil {
		return rc, nil
	}
	var err error
	if d.FirstTimeout != "" {
		if rc.FirstTimeout, err = time.ParseDuration(d.FirstTimeout); err != nil {
			return rc, fmt.Errorf("first_timeout: %w", err)
		}
	}
	if d.RetryTimeout != "" {
		if rc.RetryTimeout, err = time.ParseDuration(d.RetryTimeout); err != nil {
			return rc, fmt.Errorf("retry_timeout: %w", err)
		}
	}
	rc.MaxRetransmits = d.MaxRetransmits
	if rc != (core.RetransmitConfig{}) {
		def := core.DefaultRetransmit()
		if rc.FirstTimeout == 0 {
			rc.FirstTimeout = def.FirstTimeout
		}
		if rc.RetryTimeout == 0 {
			rc.RetryTimeout = def.RetryTimeout
		}
		if rc.MaxRetransmits == 0 {
			rc.MaxRetransmits = def.MaxRetransmits
		}
	}
	return rc, nil
}

// cpAddRequest creates one control point. protocol picks the delay
// policy — paper defaults for sapp and dcpp, period (default 1s) for
// naive.
type cpAddRequest struct {
	ID         uint32         `json:"id"`
	Device     uint32         `json:"device"`
	Addr       string         `json:"addr"`
	Protocol   string         `json:"protocol,omitempty"`
	Period     string         `json:"period,omitempty"`
	Retransmit *retransmitDTO `json:"retransmit,omitempty"`
}

// adminProtocol reads a request's protocol field: empty means DCPP.
func adminProtocol(name string) protocol.Name {
	if name == "" {
		return protocol.DCPP
	}
	return protocol.Name(name)
}

func buildPolicy(name, period string) (core.DelayPolicy, error) {
	proto := adminProtocol(name)
	var p protocol.Params
	if proto == protocol.Naive && period != "" {
		var err error
		if p.NaivePeriod, err = time.ParseDuration(period); err != nil {
			return nil, fmt.Errorf("period: %w", err)
		}
	}
	return proto.NewPolicy(p)
}

func (s *Server) handleCPAdd(w http.ResponseWriter, r *http.Request) {
	var req cpAddRequest
	if !readJSON(w, r, &req) {
		return
	}
	policy, err := buildPolicy(req.Protocol, req.Period)
	if err != nil {
		adminError(w, err)
		return
	}
	rc, err := req.Retransmit.config()
	if err != nil {
		adminError(w, err)
		return
	}
	cp, err := s.cfg.Fleet.AddControlPoint(fleet.CPConfig{
		ID:         ident.NodeID(req.ID),
		Device:     ident.NodeID(req.Device),
		DeviceAddr: req.Addr,
		Policy:     policy,
		Retransmit: rc,
	})
	if err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": req.ID, "shard": cp.Shard()})
}

type idRequest struct {
	ID uint32 `json:"id"`
}

func (s *Server) handleCPRemove(w http.ResponseWriter, r *http.Request) {
	var req idRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Fleet.RemoveControlPoint(ident.NodeID(req.ID)); err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"removed": true})
}

// deviceAddRequest hosts a loopback device engine of the named protocol
// (paper-default parameters) on the first free shard socket.
type deviceAddRequest struct {
	ID       uint32 `json:"id"`
	Protocol string `json:"protocol,omitempty"`
}

func (s *Server) handleDeviceAdd(w http.ResponseWriter, r *http.Request) {
	var req deviceAddRequest
	if !readJSON(w, r, &req) {
		return
	}
	id := ident.NodeID(req.ID)
	proto := adminProtocol(req.Protocol)
	build := func(env core.Env) (core.Device, error) { return proto.NewDevice(id, env, protocol.Params{}) }
	dev, err := s.cfg.Fleet.AddDevice(id, build)
	if err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"id": req.ID, "addr": dev.Addr().String()})
}

func (s *Server) handleDeviceRemove(w http.ResponseWriter, r *http.Request) {
	var req idRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := s.cfg.Fleet.RemoveDevice(ident.NodeID(req.ID)); err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"removed": true})
}

type drainRequest struct {
	Shard int `json:"shard"`
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if !readJSON(w, r, &req) {
		return
	}
	moved, err := s.cfg.Fleet.DrainShard(req.Shard)
	if err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"moved": moved})
}

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	var req struct{}
	if r.ContentLength != 0 && !readJSON(w, r, &req) {
		return
	}
	moved, err := s.cfg.Fleet.Rebalance()
	if err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"moved": moved})
}

// configDTO is fleet.RuntimeConfig for the wire: every field optional
// (absent = keep current), durations as strings.
type configDTO struct {
	Harden           *bool    `json:"harden,omitempty"`
	PendingTTL       *string  `json:"pending_ttl,omitempty"`
	ReplayWindow     *string  `json:"replay_window,omitempty"`
	PerSourceProbeHz *float64 `json:"per_source_probe_hz,omitempty"`
	PerSourceBurst   *int     `json:"per_source_burst,omitempty"`
	PerDeviceProbeHz *float64 `json:"per_device_probe_hz,omitempty"`
	PerDeviceBurst   *int     `json:"per_device_burst,omitempty"`
	AdmissionQueue   *int     `json:"admission_queue,omitempty"`
	// AuthKey sets the frame-authentication master key directly (empty
	// string = disable auth); AuthKeyFile reads it from a file instead —
	// POSTing the same path again re-reads it, which is how a rotation
	// is pushed without the key ever crossing the admin socket.
	AuthKey           *string `json:"auth_key,omitempty"`
	AuthKeyFile       *string `json:"auth_key_file,omitempty"`
	AuthRequire       *bool   `json:"auth_require,omitempty"`
	AuthRotationGrace *string `json:"auth_rotation_grace,omitempty"`
}

// apply overlays the DTO's present fields onto rc.
func (d *configDTO) apply(rc *fleet.RuntimeConfig) error {
	if d.Harden != nil {
		rc.Harden = *d.Harden
	}
	if d.PendingTTL != nil {
		v, err := time.ParseDuration(*d.PendingTTL)
		if err != nil {
			return fmt.Errorf("pending_ttl: %w", err)
		}
		rc.PendingTTL = v
	}
	if d.ReplayWindow != nil {
		v, err := time.ParseDuration(*d.ReplayWindow)
		if err != nil {
			return fmt.Errorf("replay_window: %w", err)
		}
		rc.ReplayWindow = v
	}
	if d.PerSourceProbeHz != nil {
		rc.PerSourceProbeHz = *d.PerSourceProbeHz
	}
	if d.PerSourceBurst != nil {
		rc.PerSourceBurst = *d.PerSourceBurst
	}
	if d.PerDeviceProbeHz != nil {
		rc.PerDeviceProbeHz = *d.PerDeviceProbeHz
	}
	if d.PerDeviceBurst != nil {
		rc.PerDeviceBurst = *d.PerDeviceBurst
	}
	if d.AdmissionQueue != nil {
		rc.AdmissionQueue = *d.AdmissionQueue
	}
	if d.AuthKey != nil && d.AuthKeyFile != nil {
		return fmt.Errorf("auth_key and auth_key_file are mutually exclusive")
	}
	if d.AuthKey != nil {
		rc.AuthKey = []byte(*d.AuthKey)
	}
	if d.AuthKeyFile != nil {
		key, err := fleet.LoadAuthKey(*d.AuthKeyFile)
		if err != nil {
			return fmt.Errorf("auth_key_file: %w", err)
		}
		rc.AuthKey = key
	}
	if d.AuthRequire != nil {
		rc.AuthRequire = *d.AuthRequire
	}
	if d.AuthRotationGrace != nil {
		v, err := time.ParseDuration(*d.AuthRotationGrace)
		if err != nil {
			return fmt.Errorf("auth_rotation_grace: %w", err)
		}
		rc.AuthRotationGrace = v
	}
	return nil
}

// configJSON renders a RuntimeConfig for GET /admin/config.
type configJSON struct {
	Harden           bool    `json:"harden"`
	PendingTTL       string  `json:"pending_ttl"`
	ReplayWindow     string  `json:"replay_window"`
	PerSourceProbeHz float64 `json:"per_source_probe_hz"`
	PerSourceBurst   int     `json:"per_source_burst"`
	PerDeviceProbeHz float64 `json:"per_device_probe_hz"`
	PerDeviceBurst   int     `json:"per_device_burst"`
	AdmissionQueue   int     `json:"admission_queue"`
	// The master key itself is a secret and never rendered; AuthEnabled
	// says whether one is installed.
	AuthEnabled       bool   `json:"auth_enabled"`
	AuthRequire       bool   `json:"auth_require"`
	AuthRotationGrace string `json:"auth_rotation_grace"`
}

func renderConfig(rc fleet.RuntimeConfig) configJSON {
	return configJSON{
		Harden:            rc.Harden,
		PendingTTL:        rc.PendingTTL.String(),
		ReplayWindow:      rc.ReplayWindow.String(),
		PerSourceProbeHz:  rc.PerSourceProbeHz,
		PerSourceBurst:    rc.PerSourceBurst,
		PerDeviceProbeHz:  rc.PerDeviceProbeHz,
		PerDeviceBurst:    rc.PerDeviceBurst,
		AdmissionQueue:    rc.AdmissionQueue,
		AuthEnabled:       len(rc.AuthKey) > 0,
		AuthRequire:       rc.AuthRequire,
		AuthRotationGrace: rc.AuthRotationGrace.String(),
	}
}

func (s *Server) handleConfigGet(w http.ResponseWriter, _ *http.Request) {
	rc, ver := s.cfg.Fleet.ConfigSnapshot()
	writeJSON(w, map[string]any{"version": ver, "config": renderConfig(rc)})
}

func (s *Server) handleConfigSet(w http.ResponseWriter, r *http.Request) {
	var d configDTO
	if !readJSON(w, r, &d) {
		return
	}
	rc, _ := s.cfg.Fleet.ConfigSnapshot()
	if err := d.apply(&rc); err != nil {
		adminError(w, err)
		return
	}
	ver, err := s.cfg.Fleet.SetConfig(rc)
	if err != nil {
		adminError(w, err)
		return
	}
	writeJSON(w, map[string]any{"version": ver})
}
