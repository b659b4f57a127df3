package train

import "fmt"

// ValidateRunFlags sanity-checks the run-shaping settings of a run's
// config.json before any graph is built, so a bad config fails at startup
// with one clear message instead of mid-run. memBudget is mem_budget in
// bytes.
func ValidateRunFlags(memBudget int64) error {
	if memBudget < 0 {
		return fmt.Errorf("mem_budget must not be negative, got %d", memBudget)
	}
	return nil
}

// validate rejects a setting that sizes a slice or bounds a loop and is not
// positive once withDefaults has replaced the zeros: a negative Workers or
// UniformNegs panics in New, a negative ChunkSize makes every chunk claim
// unbounded, and a negative Epochs trains nothing and reports success. It
// rejects the two rates the same way, each by name: a negative or NaN LR
// runs gradient ascent or poisons every row it touches, and NegAlpha is a
// fraction, so NaN or above 1 names no mix of the two samplers.
func (c Config) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Dim", c.Dim}, {"Workers", c.Workers}, {"ChunkSize", c.ChunkSize}, {"UniformNegs", c.UniformNegs}, {"Epochs", c.Epochs}} {
		if f.v <= 0 {
			return fmt.Errorf("train: %s must be positive, got %d", f.name, f.v)
		}
	}
	if !(c.LR > 0) {
		return fmt.Errorf("train: LR must be positive, got %v", c.LR)
	}
	if !(c.NegAlpha <= 1) {
		return fmt.Errorf("train: NegAlpha must be at most 1, got %v", c.NegAlpha)
	}
	return nil
}
