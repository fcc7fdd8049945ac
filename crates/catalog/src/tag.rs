//! Tag objects: the paper's vertical partition of the 10 popular
//! attributes.
//!
//! > "We plan to isolate the 10 most popular attributes (3 Cartesian
//! > positions on the sky, 5 colors, 1 size, 1 classification parameter)
//! > into small 'tag' objects, which point to the rest of the attributes.
//! > [...] These will occupy much less space, thus can be searched more
//! > than 10 times faster, if no other attributes are involved in the
//! > query."
//!
//! The serialized tag is 64 bytes against ~1.2 KB for the full object —
//! the ~19× byte ratio behind experiment E5's speedup measurement.

use crate::photoobj::{ObjClass, PhotoObj, PhotoRecord};
use crate::CatalogError;
use bytes::{Buf, BufMut};
use sdss_skycoords::{SkyPos, UnitVec3};

/// The 10-attribute tag record (plus the object-id "pointer to the rest
/// of the attributes").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TagObject {
    /// Pointer back to the full object.
    pub obj_id: u64,
    /// The 3 Cartesian positions.
    pub x: f64,
    pub y: f64,
    pub z: f64,
    /// The 5 "colors" (band magnitudes; colors are adjacent differences).
    pub mags: [f32; 5],
    /// The 1 size: Petrosian radius in r, arcsec.
    pub size: f32,
    /// The 1 classification parameter.
    pub class: ObjClass,
}

impl TagObject {
    /// Fixed serialized width: 8 + 24 + 20 + 4 + 1 + 7 padding = 64 bytes.
    /// Power-of-two width keeps tag pages perfectly packed.
    pub const SERIALIZED_LEN: usize = 64;

    /// Project the tag attributes out of a full object.
    pub fn from_photo(obj: &PhotoObj) -> TagObject {
        TagObject {
            obj_id: obj.obj_id,
            x: obj.x,
            y: obj.y,
            z: obj.z,
            mags: [obj.mag(0), obj.mag(1), obj.mag(2), obj.mag(3), obj.mag(4)],
            size: obj.size_arcsec(),
            class: obj.class,
        }
    }

    /// [`TagObject::from_photo`] read in place from a stored record:
    /// ~50 bytes read instead of a ~1.16 KB decode.
    pub fn from_record(rec: &PhotoRecord<'_>) -> TagObject {
        TagObject {
            obj_id: rec.obj_id(),
            x: rec.x(),
            y: rec.y(),
            z: rec.z(),
            mags: [rec.mag(0), rec.mag(1), rec.mag(2), rec.mag(3), rec.mag(4)],
            size: rec.size_arcsec(),
            class: rec.class(),
        }
    }

    #[inline]
    pub fn unit_vec(&self) -> UnitVec3 {
        UnitVec3::new_unchecked(self.x, self.y, self.z)
    }

    pub fn pos(&self) -> SkyPos {
        SkyPos::from_unit_vec(self.unit_vec())
    }

    #[inline]
    pub fn mag(&self, b: usize) -> f32 {
        self.mags[b]
    }

    #[inline]
    pub fn color_ug(&self) -> f32 {
        self.mags[0] - self.mags[1]
    }

    #[inline]
    pub fn color_gr(&self) -> f32 {
        self.mags[1] - self.mags[2]
    }

    #[inline]
    pub fn color_ri(&self) -> f32 {
        self.mags[2] - self.mags[3]
    }

    #[inline]
    pub fn color_iz(&self) -> f32 {
        self.mags[3] - self.mags[4]
    }

    /// Serialize into the fixed 64-byte record.
    pub fn write_to(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.obj_id);
        buf.put_f64_le(self.x);
        buf.put_f64_le(self.y);
        buf.put_f64_le(self.z);
        for m in self.mags {
            buf.put_f32_le(m);
        }
        buf.put_f32_le(self.size);
        buf.put_u8(self.class as u8);
        buf.put_bytes(0, 7); // pad to 64
    }

    /// Deserialize a record written by [`TagObject::write_to`].
    pub fn read_from(buf: &mut impl Buf) -> Result<TagObject, CatalogError> {
        if buf.remaining() < Self::SERIALIZED_LEN {
            return Err(CatalogError::Corrupt(format!(
                "need {} bytes for TagObject, have {}",
                Self::SERIALIZED_LEN,
                buf.remaining()
            )));
        }
        let obj_id = buf.get_u64_le();
        let x = buf.get_f64_le();
        let y = buf.get_f64_le();
        let z = buf.get_f64_le();
        let mut mags = [0f32; 5];
        for m in mags.iter_mut() {
            *m = buf.get_f32_le();
        }
        let size = buf.get_f32_le();
        let class = ObjClass::from_u8(buf.get_u8())?;
        buf.advance(7);
        Ok(TagObject {
            obj_id,
            x,
            y,
            z,
            mags,
            size,
            class,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    #[test]
    fn width_is_64_bytes() {
        let tag = TagObject::default();
        let mut buf = BytesMut::new();
        tag.write_to(&mut buf);
        assert_eq!(buf.len(), 64);
        assert_eq!(buf.len(), TagObject::SERIALIZED_LEN);
    }

    #[test]
    fn byte_ratio_supports_10x_claim() {
        // The paper claims tags search >10x faster; the byte ratio alone
        // must exceed 10x for that to be possible.
        let ratio = PhotoObj::SERIALIZED_LEN as f64 / TagObject::SERIALIZED_LEN as f64;
        assert!(ratio > 10.0, "full/tag byte ratio only {ratio:.1}");
    }

    #[test]
    fn projection_preserves_the_ten_attributes() {
        let mut obj = PhotoObj {
            obj_id: 77,
            class: ObjClass::Galaxy,
            ..PhotoObj::default()
        };
        obj.set_position(SkyPos::new(210.5, -12.25).unwrap());
        for (i, m) in [21.0f32, 20.0, 19.4, 19.1, 18.9].into_iter().enumerate() {
            obj.bands[i].model_mag = m;
        }
        obj.bands[2].petro_rad = 3.5;
        let tag = TagObject::from_photo(&obj);
        assert_eq!(tag.obj_id, 77);
        assert_eq!(tag.class, ObjClass::Galaxy);
        assert_eq!(tag.size, 3.5);
        assert!((tag.unit_vec().separation_deg(obj.unit_vec())).abs() < 1e-12);
        assert!((tag.color_gr() - obj.color_gr()).abs() < 1e-6);
        assert!((tag.mag(2) - 19.4).abs() < 1e-6);
    }

    #[test]
    fn short_buffer_rejected() {
        let buf = BytesMut::from(&[0u8; 32][..]);
        assert!(TagObject::read_from(&mut buf.freeze()).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            obj_id in any::<u64>(),
            ra in 0.0f64..360.0, dec in -90.0f64..90.0,
            mags in proptest::array::uniform5(10.0f32..25.0),
            size in 0.0f32..60.0,
            class_byte in 0u8..4,
        ) {
            let v = SkyPos::new(ra, dec).unwrap().unit_vec();
            let tag = TagObject {
                obj_id,
                x: v.x(),
                y: v.y(),
                z: v.z(),
                mags,
                size,
                class: ObjClass::from_u8(class_byte).unwrap(),
            };
            let mut buf = BytesMut::new();
            tag.write_to(&mut buf);
            prop_assert_eq!(buf.len(), TagObject::SERIALIZED_LEN);
            let back = TagObject::read_from(&mut buf.freeze()).unwrap();
            prop_assert_eq!(back, tag);
        }

        #[test]
        fn prop_projection_is_stable(
            ra in 0.0f64..360.0, dec in -89.0f64..89.0,
        ) {
            let mut obj = PhotoObj::default();
            obj.set_position(SkyPos::new(ra, dec).unwrap());
            let t1 = TagObject::from_photo(&obj);
            let t2 = TagObject::from_photo(&obj);
            prop_assert_eq!(t1, t2);
        }
    }
}
