package bwamem

import (
	"time"

	"seedex/internal/align"
	"seedex/internal/sam"
)

// Mapper is a reentrant mapping session: a private view of a shared
// Aligner whose extender is a per-goroutine session (own scratch memory),
// so long-lived workers — server goroutines, pipeline threads — map reads
// concurrently against one Aligner without sharing mutable state. A
// Mapper must not be used concurrently; mint one per worker. Mapping
// through a Mapper produces exactly the records Run produces, whatever
// the batches the reads arrive in.
type Mapper struct {
	cp          Aligner // shallow copy with its own Extender session, batch scratch and traceback workspace
	defaultQual []byte  // grow-only 'I' fill for reads without qualities
	one         [1]Read // Map's batch
	recs        []sam.Record
}

// mapConsumer is an extension session that can be told its results feed
// only resolveSide under the given clip penalty, so it need keep exact
// only what resolveSide reads (core.Checker.ServeMapper). Sessions that
// wrap another forward it.
type mapConsumer interface {
	ServeMapper(clipPenalty int)
}

// NewMapper returns a mapping session over this aligner. The session
// shares the parent's index, options and aggregate statistics (the SeedEx
// extender's atomic counters), but owns its extension, batch and
// traceback scratch. The extension session it mints has one consumer,
// resolveSide, and is told so (mapConsumer).
func (a *Aligner) NewMapper() *Mapper {
	cp := *a
	cp.trace = &align.TraceWorkspace{}
	cp.scratch = &mapScratch{}
	if se, ok := a.Extender.(align.SessionExtender); ok {
		cp.Extender = se.Session()
		if mc, ok := cp.Extender.(mapConsumer); ok {
			mc.ServeMapper(a.Opts.ClipPenalty)
		}
	}
	return &Mapper{cp: cp}
}

// Map aligns one read and renders its SAM record: the batch of one. Seq
// holds base codes (see genome.Encode); a nil qual gets the default 'I'
// fill, mirroring Run. The second return carries the internal alignment
// for callers that want scores and positions without parsing SAM.
func (m *Mapper) Map(name string, seq, qual []byte) (sam.Record, Alignment) {
	m.one[0] = Read{Name: name, Seq: seq, Qual: qual}
	recs, als, _ := m.MapBatch(m.one[:])
	return recs[0], als[0]
}

// MapBatch aligns the reads as one batch — their extensions pooled into
// shared left and right extender batches (see Aligner.candidatesBatch) —
// and renders their SAM records. Each read's record and alignment are
// those Map returns for it. The returned slices are the Mapper's, valid
// until its next call; the times are the batch's stage boundaries.
func (m *Mapper) MapBatch(reads []Read) ([]sam.Record, []Alignment, BatchTimes) {
	als, bt := m.cp.alignBatch(reads)
	m.recs = m.recs[:0]
	for i, r := range reads {
		qual := r.Qual
		if qual == nil {
			for len(m.defaultQual) < len(r.Seq) {
				m.defaultQual = append(m.defaultQual, 'I')
			}
			qual = m.defaultQual[:len(r.Seq)]
		}
		m.recs = append(m.recs, ToSAM(r.Name, r.Seq, qual, m.cp.RefName, als[i]))
	}
	bt.End = time.Now()
	return m.recs, als, bt
}
