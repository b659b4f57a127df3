package train

import (
	"fmt"

	"pbg/internal/storage"
)

// ValidateRunFlags sanity-checks the run-shaping settings of a run's
// config.json before any graph is built, so a bad config fails at startup
// with one clear message instead of mid-run. codec is the codec field (""
// means fp32); memBudget is mem_budget in bytes.
func ValidateRunFlags(codec string, memBudget int64) error {
	if _, err := storage.ParseCodec(codec); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	if memBudget < 0 {
		return fmt.Errorf("mem_budget must not be negative, got %d", memBudget)
	}
	return nil
}
