package profile

import (
	"encoding/json"
	"fmt"

	"ctdvs/internal/pipeline"
)

// fileJSON is the canonical JSON rendering of a profile's measurement data,
// the input of Fingerprint. The program, input and graph are NOT serialized —
// only their names and dimensions, which pin the workload. Struct field order
// is fixed, so Encode is deterministic. The store keeps profiles in the
// binary codec (codec_binary.go); this encoding only feeds solve keys, so
// changing it changes every key downstream of a profile.
type fileJSON struct {
	Version int        `json:"version"`
	Program string     `json:"program"`
	Input   string     `json:"input"`
	Modes   []modeJSON `json:"modes"`
	NBlocks int        `json:"n_blocks"`
	NEdges  int        `json:"n_edges"`
	NPaths  int        `json:"n_paths"`

	TimeUS      [][]float64 `json:"time_us"`
	EnergyUJ    [][]float64 `json:"energy_uj"`
	Invocations []int64     `json:"invocations"`
	EdgeCounts  []int64     `json:"edge_counts"`
	PathCounts  []int64     `json:"path_counts"`

	TotalTimeUS   []float64 `json:"total_time_us"`
	TotalEnergyUJ []float64 `json:"total_energy_uj"`

	Params paramsJSON `json:"params"`
}

type modeJSON struct {
	Volts float64 `json:"volts"`
	MHz   float64 `json:"mhz"`
}

type paramsJSON struct {
	NCache       int64   `json:"n_cache"`
	NOverlap     int64   `json:"n_overlap"`
	NDependent   int64   `json:"n_dependent"`
	TInvariantUS float64 `json:"t_invariant_us"`
}

const codecVersion = 1

// Encode renders the profile's measurement data as deterministic JSON.
func Encode(pr *Profile) ([]byte, error) {
	if pr == nil || pr.Graph == nil || pr.Modes == nil {
		return nil, fmt.Errorf("profile: encode nil profile")
	}
	f := fileJSON{
		Version: codecVersion,
		Program: pr.Program.Name,
		Input:   pr.Input.Name,
		NBlocks: pr.Graph.NumBlocks,
		NEdges:  pr.Graph.NumEdges(),
		NPaths:  len(pr.Graph.Paths),

		TimeUS:      pr.TimeUS,
		EnergyUJ:    pr.EnergyUJ,
		Invocations: pr.Invocations,
		EdgeCounts:  pr.EdgeCounts,
		PathCounts:  pr.PathCounts,

		TotalTimeUS:   pr.TotalTimeUS,
		TotalEnergyUJ: pr.TotalEnergyUJ,

		Params: paramsJSON{
			NCache:       pr.Params.NCache,
			NOverlap:     pr.Params.NOverlap,
			NDependent:   pr.Params.NDependent,
			TInvariantUS: pr.Params.TInvariantUS,
		},
	}
	for _, m := range pr.Modes.Modes() {
		f.Modes = append(f.Modes, modeJSON{Volts: m.V, MHz: m.F})
	}
	return json.Marshal(f)
}

// Fingerprint returns the content digest of the profile's measurement data,
// used to key downstream solve artifacts on exactly the data they consumed.
func Fingerprint(pr *Profile) (string, error) {
	data, err := Encode(pr)
	if err != nil {
		return "", err
	}
	return pipeline.Fingerprint(data), nil
}
