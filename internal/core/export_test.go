package core

import "repro/internal/icv"

// ICVs exposes the runtime's internal control variables.
func (r *Runtime) ICVs() *icv.Set { return r.pool.ICVs() }
