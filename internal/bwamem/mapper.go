package bwamem

import (
	"seedex/internal/align"
	"seedex/internal/sam"
)

// Mapper is a reentrant single-read mapping session: a private view of a
// shared Aligner whose extender is a per-goroutine session (own scratch
// memory), so long-lived workers — server goroutines, pipeline threads —
// map reads concurrently against one Aligner without sharing mutable
// state. A Mapper must not be used concurrently; mint one per worker.
// Mapping through a Mapper produces exactly the records Run produces.
type Mapper struct {
	cp          Aligner // shallow copy with its own Extender session and traceback workspace
	defaultQual []byte  // grow-only 'I' fill for reads without qualities
}

// NewMapper returns a mapping session over this aligner. The session
// shares the parent's index, options and aggregate statistics (the SeedEx
// extender's atomic counters), but owns its extension and traceback
// scratch.
func (a *Aligner) NewMapper() *Mapper {
	cp := *a
	cp.trace = &align.TraceWorkspace{}
	if se, ok := a.Extender.(align.SessionExtender); ok {
		cp.Extender = se.Session()
	}
	return &Mapper{cp: cp}
}

// Map aligns one read and renders its SAM record. Seq holds base codes
// (see genome.Encode); a nil qual gets the default 'I' fill, mirroring
// Run. The second return carries the internal alignment for callers that
// want scores and positions without parsing SAM.
func (m *Mapper) Map(name string, seq, qual []byte) (sam.Record, Alignment) {
	al := m.cp.AlignRead(seq)
	if qual == nil {
		if len(m.defaultQual) < len(seq) {
			m.defaultQual = make([]byte, len(seq))
			for i := range m.defaultQual {
				m.defaultQual[i] = 'I'
			}
		}
		qual = m.defaultQual[:len(seq)]
	}
	return ToSAM(name, seq, qual, m.cp.RefName, al), al
}
