package dse

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"repro/internal/program"
	"repro/internal/sched"
)

// scheduleCacheCap bounds a ScheduleCache's entries. An entry takes
// about 400 bytes of heap (BenchmarkScheduleCacheEntryBytes: 396 on
// amd64), so a full cache holds about 6.5 MB. The five job kernels over
// the default sweep's 144 structures make 720 entries; one guided search
// of 100k genomes schedules about 19k structures.
const scheduleCacheCap = 16384

// ScheduleCache shares schedule outcomes across explorations: for a
// workload kernel and a structure, the schedule's sched.Summary, or the
// reason the scheduler rejects the structure. An exploration whose
// Config.Schedules names the cache looks a structure up before it
// schedules it and stores what it scheduled, so explorations that share
// one cache schedule each (kernel, structure) once between them. The
// ttadsed daemon keeps one per server; the CLI never sets one.
//
// An entry is keyed by a digest of the kernel graph (kernelDigest) and
// structKey of the architecture. The key is sound for three reasons:
//
//   - The scheduler reads of an architecture only its bus count and,
//     per component in order, the kind, the port roles and the
//     register-file shape (the facts the proof of sched.Usage.Admits
//     lists). structKey records the bus count and the ordered kinds and
//     shapes. The architectures of an exploration are built by
//     assembleArch, whose port roles follow from the kind and the shape
//     and whose component names (which the rejections of
//     Architecture.Validate quote) from the kind and the position.
//   - The explorer always schedules with sched.CriticalPath and default
//     options, so the graph is the only other input, and the digest
//     covers all of the graph the scheduler reads.
//   - Inside one exploration, structKey already shares one schedule
//     across assignment variants (schedMemo); the cache only extends
//     that sharing across explorations.
//
// Area and clock are not cached: they depend on the exploration's
// annotator and bus model, and each exploration computes them. A
// context error is never stored, so a cancelled exploration leaves no
// trace in the cache. The cache stops growing at scheduleCacheCap
// entries; later outcomes are used but not kept. The zero value is an
// empty cache ready for use, and any number of explorations may share
// one at once.
type ScheduleCache struct {
	mu sync.Mutex
	m  map[scheduleKey]scheduleOutcome
	// max overrides scheduleCacheCap when positive (tests).
	max int
}

// scheduleKey identifies a schedule: the kernel's digest and the
// structure's structKey.
type scheduleKey struct {
	kernel    [sha256.Size]byte
	structure string
}

// scheduleOutcome is what scheduling a kernel on a structure gave: the
// summary of a feasible schedule, or the scheduler's reason when the
// structure is infeasible.
type scheduleOutcome struct {
	sum      sched.Summary
	feasible bool
	reason   string
}

// Len returns the number of cached outcomes.
func (c *ScheduleCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *ScheduleCache) lookup(k scheduleKey) (scheduleOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.m[k]
	return o, ok
}

// store keeps o under k unless the cache is full.
func (c *ScheduleCache) store(k scheduleKey, o scheduleOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	limit := scheduleCacheCap
	if c.max > 0 {
		limit = c.max
	}
	if len(c.m) >= limit {
		return
	}
	if c.m == nil {
		c.m = make(map[scheduleKey]scheduleOutcome)
	}
	c.m[k] = o
}

// kernelDigest is the sha256 of everything of g the scheduler reads: the
// width, every op's opcode, operands, immediate and memory predecessor,
// and the outputs. The graph's name is left out.
func kernelDigest(g *program.Graph) [sha256.Size]byte {
	b := make([]byte, 0, 8*3+len(g.Ops)*(4*4+8)+len(g.Outputs)*4)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Width))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.Ops)))
	for _, op := range g.Ops {
		b = binary.LittleEndian.AppendUint32(b, uint32(op.Op))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.A))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.B))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.MemPred))
		b = binary.LittleEndian.AppendUint64(b, op.Imm)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.Outputs)))
	for _, o := range g.Outputs {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	return sha256.Sum256(b)
}
