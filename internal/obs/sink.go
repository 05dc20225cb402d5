package obs

import (
	"encoding/json"
	"io"
)

// JSONSink writes snapshots as indented JSON, one document per Emit.
type JSONSink struct{ W io.Writer }

// Emit writes snap to the sink's writer.
func (s JSONSink) Emit(snap *Snapshot) error {
	enc := json.NewEncoder(s.W)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
