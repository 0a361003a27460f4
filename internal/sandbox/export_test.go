package sandbox

import "repro/internal/lang"

// Template returns the booted template for kind, or nil.
func (cr *ContainerRuntime) Template(kind lang.Kind) *lang.Instance {
	return cr.templates[kind]
}
