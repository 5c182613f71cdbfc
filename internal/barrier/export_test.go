package barrier

// N returns the number of participants.
func (b *Central) N() int { return b.n }

// N returns the number of participants.
func (b *Tree) N() int { return b.n }

// N returns the number of participants.
func (b *Dissemination) N() int { return b.n }

// participants returns b's number of participants.
func participants(b Barrier) int { return b.(interface{ N() int }).N() }
