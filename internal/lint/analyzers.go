package lint

// Analyzers returns the full pbg-lint suite, in stable order. Each analyzer
// encodes an invariant a past PR fixed or established by hand; see
// docs/ARCHITECTURE.md "Static analysis" for the history.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		RangeMapDet,
		LockCall,
		ObsHandle,
		PairedRelease,
		ErrDrop,
		NoRace,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
