// FromSpec turns a serializable job description (internal/jobspec) into
// a runnable exploration Config — the single mapping shared by the
// ttadse CLI (whose flags populate a Spec) and the ttadsed daemon (whose
// POST bodies decode into one), so the two surfaces cannot drift.
package dse

import (
	"fmt"

	"repro/internal/jobspec"
	"repro/internal/program"
	"repro/internal/workloads"
)

// FromSpec builds the Config and SelectionSpec described by spec, over
// the paper's defaults for everything the spec leaves zero. The space
// lists are normalized (sorted, deduplicated) without mutating spec.
//
// Only serializable knobs are applied. The caller wires the live
// objects: the annotator and its warm-start cache, the checkpoint file
// (OpenCheckpoint), the job deadline (Spec.Timeout via
// context.WithTimeout), the ATPG budget (Spec.ATPGDeadline onto
// Annotator.ATPGDeadline), and the observability registry / event sink.
// Cache and checkpoint paths come from the caller's own flags, never
// from the spec (Spec.Cache and Spec.Checkpoint are ignored).
func FromSpec(spec jobspec.Spec) (Config, SelectionSpec, error) {
	if err := spec.Validate(); err != nil {
		return Config{}, SelectionSpec{}, err
	}
	cfg, err := DefaultConfig()
	if err != nil {
		return Config{}, SelectionSpec{}, err
	}
	if spec.Width != 0 {
		cfg.Width = spec.Width
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	spec.Normalize()
	if len(spec.Buses) > 0 {
		cfg.Buses = spec.Buses
	}
	if len(spec.ALUs) > 0 {
		cfg.ALUCounts = spec.ALUs
	}
	if len(spec.CMPs) > 0 {
		cfg.CMPCounts = spec.CMPs
	}
	if err := applyWorkload(&cfg, spec.Workload); err != nil {
		return Config{}, SelectionSpec{}, err
	}
	cfg.Parallelism = spec.Parallelism
	cfg.VerifySelected = spec.VerifySelected
	// The spec's result identity travels with the config so checkpoint
	// files bind to it.
	cfg.SpecHash = spec.Hash()
	if spec.Search != nil {
		cfg.Search = &SearchSpec{
			Population:  spec.Search.Population,
			Generations: spec.Search.Generations,
			Eta:         spec.Search.Eta,
			Seed:        spec.Search.Seed,
		}
	}

	sel := SelectionSpec{
		Norm: spec.Norm,
		WA:   spec.WA, WT: spec.WT, WC: spec.WC,
		DegradedPolicy:  spec.DegradedPolicy,
		DegradedPenalty: spec.DegradedPenalty,
	}
	if err := sel.Validate(); err != nil {
		return Config{}, SelectionSpec{}, err
	}
	return cfg, sel, nil
}

// applyWorkload swaps the explored application kernel (the default
// config already carries crypt).
func applyWorkload(cfg *Config, name string) error {
	var g *program.Graph
	var err error
	switch name {
	case "crypt", "":
		return nil
	case "crc16":
		g, err = workloads.CRC16(4, 0x40)
	case "vecmax":
		g, err = workloads.VecMax(16, 0x40)
	case "countbelow":
		g, err = workloads.CountBelow(12)
	case "checksum":
		g, err = workloads.Checksum(8, 0x40)
	default:
		return fmt.Errorf("dse: unknown workload %q", name)
	}
	if err != nil {
		return err
	}
	cfg.Workload = g
	// The non-crypt kernels model 1000 repetitions of the inner loop,
	// matching the CLI's historical -workload behavior.
	cfg.WorkloadReps = 1000
	return nil
}
