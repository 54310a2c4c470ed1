package webml

import (
	"fmt"
	"sync"
)

// PluginSpec declares a plug-in unit kind (Section 7: "new components,
// which can be easily plugged into the design and runtime environment, by
// providing their graphical icon, their unit service and rendition tags
// and the XSL rules for building their descriptors"). The model layer
// records the declaration; the runtime layers (mvc, render, style) attach
// the service, tag renderer and style rules by kind name.
type PluginSpec struct {
	// Kind is the unit kind name. It must not collide with a core kind.
	Kind UnitKind
	// Operation marks the plug-in as an operation unit; otherwise it is a
	// content unit.
	Operation bool
	// Description documents the plug-in in generated artifacts.
	Description string
	// RequiredProps lists Unit.Props keys that must be present for a unit
	// of this kind to validate.
	RequiredProps []string
}

var (
	pluginMu sync.RWMutex
	plugins  = map[UnitKind]PluginSpec{}
)

// RegisterPlugin adds a plug-in unit kind to the design environment.
// It returns an error if the kind collides with a core or already
// registered kind.
func RegisterPlugin(spec PluginSpec) error {
	if spec.Kind == "" {
		return fmt.Errorf("webml: plug-in kind must not be empty")
	}
	for _, c := range CoreUnitKinds {
		if c == spec.Kind {
			return fmt.Errorf("webml: plug-in kind %q collides with a core unit kind", spec.Kind)
		}
	}
	pluginMu.Lock()
	defer pluginMu.Unlock()
	if _, dup := plugins[spec.Kind]; dup {
		return fmt.Errorf("webml: plug-in kind %q already registered", spec.Kind)
	}
	plugins[spec.Kind] = spec
	return nil
}

// LookupPlugin returns the registered spec for a kind.
func LookupPlugin(kind UnitKind) (PluginSpec, bool) {
	pluginMu.RLock()
	defer pluginMu.RUnlock()
	sp, ok := plugins[kind]
	return sp, ok
}

// UnregisterPlugin removes a plug-in registration (used by tests).
func UnregisterPlugin(kind UnitKind) {
	pluginMu.Lock()
	defer pluginMu.Unlock()
	delete(plugins, kind)
}
