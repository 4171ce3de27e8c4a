//! Pages and the resources they load.

use crate::url::Url;

/// What kind of object a page loads (shapes realistic synthetic pages;
/// the dependency analysis itself only cares about hostnames).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The HTML document itself.
    Document,
    /// JavaScript.
    Script,
    /// CSS.
    Stylesheet,
    /// Images.
    Image,
    /// Web fonts.
    Font,
    /// Audio/video.
    Media,
}

/// One object referenced by a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Where the object is fetched from.
    pub url: Url,
    /// Object kind.
    pub kind: ResourceKind,
}

impl Resource {
    /// Builds a resource.
    pub fn new(url: Url, kind: ResourceKind) -> Self {
        Resource { url, kind }
    }
}

/// A renderable landing page: the set of objects a headless browser
/// would fetch. The paper crawls landing pages only (its §3.5 notes this
/// covers ~87% of the external domains all pages use).
///
/// The resources sit in one exact-size array. Their paths are `Arc<str>`
/// (see [`Url`]), so pages built from one set of path strings share
/// them instead of holding a copy per resource.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Page {
    /// Objects referenced by the document, in document order.
    pub resources: Box<[Resource]>,
}

impl Page {
    /// A page loading `resources`, in document order.
    pub fn new(resources: Vec<Resource>) -> Self {
        Page {
            resources: resources.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webdeps_model::name::dn;

    #[test]
    fn resources_keep_document_order_and_share_paths() {
        let path: std::sync::Arc<str> = "/a.js".into();
        let url = |host| Url {
            scheme: crate::url::Scheme::Https,
            host: dn(host),
            path: path.clone(),
        };
        let p = Page::new(vec![
            Resource::new(url("static.example.com"), ResourceKind::Script),
            Resource::new(url("img.example.net"), ResourceKind::Image),
        ]);
        let hosts: Vec<&str> = p.resources.iter().map(|r| r.url.host.as_str()).collect();
        assert_eq!(hosts, ["static.example.com", "img.example.net"]);
        assert!(std::sync::Arc::ptr_eq(
            &p.resources[0].url.path,
            &p.resources[1].url.path
        ));
        assert_eq!(
            p.resources[1].url.to_string(),
            "https://img.example.net/a.js"
        );
    }
}
