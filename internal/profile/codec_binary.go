package profile

import (
	"fmt"

	"ctdvs/internal/cfg"
	"ctdvs/internal/ir"
	"ctdvs/internal/pipeline"
	"ctdvs/internal/sim"
	"ctdvs/internal/volt"
)

// Binary profile codec. The dominant payload — the per-block × per-mode
// time/energy matrices — is written as two raw IEEE-754 runs over a single
// backing array, so a warm decode performs a handful of exact-size
// allocations instead of one per block row plus one per JSON number.
// Binary is the profile's only store codec; Fingerprint hashes the JSON
// encoding (codec.go), which keys downstream solves and is never stored.

// EncodeBinary renders the profile in the binary artifact format.
func EncodeBinary(pr *Profile) ([]byte, error) {
	if pr == nil || pr.Graph == nil || pr.Modes == nil {
		return nil, fmt.Errorf("profile: encode nil profile")
	}
	nb, nm := pr.Graph.NumBlocks, pr.Modes.Len()
	hint := 256 + 16*nb*nm + 16*nm +
		4*(len(pr.Invocations)+len(pr.EdgeCounts)+len(pr.PathCounts))
	w := pipeline.NewBinWriter(pipeline.BinTagProfile, hint)
	w.Uvarint(codecVersion)
	w.String(pr.Program.Name)
	w.String(pr.Input.Name)
	w.Varint(int64(nm))
	for _, m := range pr.Modes.Modes() {
		w.Float(m.V)
		w.Float(m.F)
	}
	w.Varint(int64(nb))
	w.Varint(int64(pr.Graph.NumEdges()))
	w.Varint(int64(len(pr.Graph.Paths)))

	for _, row := range pr.TimeUS {
		w.FloatsRaw(row)
	}
	for _, row := range pr.EnergyUJ {
		w.FloatsRaw(row)
	}
	w.Int64s(pr.Invocations)
	w.Int64s(pr.EdgeCounts)
	w.Int64s(pr.PathCounts)
	w.FloatsRaw(pr.TotalTimeUS)
	w.FloatsRaw(pr.TotalEnergyUJ)

	w.Varint(pr.Params.NCache)
	w.Varint(pr.Params.NOverlap)
	w.Varint(pr.Params.NDependent)
	w.Float(pr.Params.TInvariantUS)
	return w.Bytes(), nil
}

// DecodeBinary reconstructs a profile from a binary artifact for the given
// workload. The program, input and mode set come from the caller (the
// workload spec), and the artifact must agree with them — a mismatch means
// the key logic failed, and DecodeBinary reports it rather than returning a
// profile for the wrong workload. The time/energy matrices share one backing
// array per matrix; the input slice is never retained.
func DecodeBinary(data []byte, p *ir.Program, in ir.Input, modes *volt.ModeSet) (*Profile, error) {
	r, err := pipeline.NewBinReader(data, pipeline.BinTagProfile)
	if err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if v := r.Uvarint(); r.Err() == nil && v != codecVersion {
		return nil, fmt.Errorf("profile: artifact version %d, want %d", v, codecVersion)
	}
	program := r.String()
	input := r.String()
	nModes := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if program != p.Name || input != in.Name {
		return nil, fmt.Errorf("profile: artifact is for %s/%s, want %s/%s", program, input, p.Name, in.Name)
	}
	if nModes != modes.Len() {
		return nil, fmt.Errorf("profile: artifact has %d modes, want %d", nModes, modes.Len())
	}
	for i, m := range modes.Modes() {
		v, f := r.Float(), r.Float()
		if r.Err() == nil && (v != m.V || f != m.F) {
			return nil, fmt.Errorf("profile: artifact mode %d is (%gV, %gMHz), want (%gV, %gMHz)", i, v, f, m.V, m.F)
		}
	}
	nBlocks := r.Int()
	nEdges := r.Int()
	nPaths := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	g, err := cfg.FromProgram(p)
	if err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if nBlocks != g.NumBlocks || nEdges != g.NumEdges() || nPaths != len(g.Paths) {
		return nil, fmt.Errorf("profile: artifact graph dims (%d blocks, %d edges, %d paths) do not match program (%d, %d, %d)",
			nBlocks, nEdges, nPaths, g.NumBlocks, g.NumEdges(), len(g.Paths))
	}
	nm := nModes
	// The matrix dimensions are validated above, so the float runs carry no
	// length prefixes; bounding them against the input before allocating
	// keeps a truncated artifact from claiming a huge matrix. Each matrix is
	// one contiguous run over a single backing array.
	if r.Remaining() < 16*nBlocks*nm {
		return nil, fmt.Errorf("profile: artifact matrices truncated")
	}
	timeBack := make([]float64, nBlocks*nm)
	energyBack := make([]float64, nBlocks*nm)
	r.FloatsInto(timeBack)
	r.FloatsInto(energyBack)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	timeUS := make([][]float64, nBlocks)
	energyUJ := make([][]float64, nBlocks)
	for j := 0; j < nBlocks; j++ {
		timeUS[j] = timeBack[j*nm : (j+1)*nm : (j+1)*nm]
		energyUJ[j] = energyBack[j*nm : (j+1)*nm : (j+1)*nm]
	}
	invocations := r.Int64s()
	edgeCounts := r.Int64s()
	pathCounts := r.Int64s()
	totalTime := make([]float64, nm)
	totalEnergy := make([]float64, nm)
	r.FloatsInto(totalTime)
	r.FloatsInto(totalEnergy)
	params := sim.Params{
		NCache:       r.Varint(),
		NOverlap:     r.Varint(),
		NDependent:   r.Varint(),
		TInvariantUS: r.Float(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if len(invocations) != g.NumBlocks || len(edgeCounts) != g.NumEdges() || len(pathCounts) != len(g.Paths) {
		return nil, fmt.Errorf("profile: artifact arrays do not match graph dimensions")
	}
	return &Profile{
		Program:       p,
		Input:         in,
		Graph:         g,
		Modes:         modes,
		TimeUS:        timeUS,
		EnergyUJ:      energyUJ,
		Invocations:   invocations,
		EdgeCounts:    edgeCounts,
		PathCounts:    pathCounts,
		TotalTimeUS:   totalTime,
		TotalEnergyUJ: totalEnergy,
		Params:        params,
	}, nil
}
