package audit

// Detail returns the retained violation records (bounded by
// Config.MaxDetail).
func (a *Auditor) Detail() []Violation {
	if a == nil {
		return nil
	}
	return a.detail
}
